(* sweepcc: inspect the SweepCache compiler's output for a benchmark —
   compilation statistics per mode, or the full disassembly listing.

     dune exec bin/sweepcc.exe -- sha
     dune exec bin/sweepcc.exe -- sha -m replay --dump
     dune exec bin/sweepcc.exe -- --list
*)

open Cmdliner
module H = Sweep_sim.Harness
module Pipeline = Sweep_compiler.Pipeline
module Table = Sweep_util.Table

let mode_assoc =
  [ ("plain", Pipeline.Plain); ("sweep", Pipeline.Sweep);
    ("replay", Pipeline.Replay) ]

let stats_row label (c : Pipeline.compiled) =
  [
    label;
    string_of_int c.stats.static_instrs;
    string_of_int c.stats.static_stores;
    string_of_int c.stats.boundaries;
    string_of_int c.stats.ckpt_stores;
    string_of_int c.stats.clwbs;
    string_of_int c.stats.spills;
    string_of_int c.stats.unrolled_loops;
    string_of_int c.stats.inlined_calls;
    string_of_int c.stats.max_region_stores;
  ]

let main list_benches bench mode threshold unroll inline dump =
  if list_benches then begin
    List.iter print_endline (Sweep_workloads.Registry.names ());
    0
  end
  else
    match bench with
    | None ->
      prerr_endline "a WORKLOAD argument is required (or --list)";
      2
    | Some bench ->
      (match Sweep_workloads.Registry.find bench with
      | exception Not_found ->
        Printf.eprintf "unknown workload %S (try --list)\n" bench;
        2
      | w ->
        let ast = Sweep_workloads.Workload.program w in
        let compile mode =
          Pipeline.compile
            ~options:
              (Pipeline.options ~mode ~store_threshold:threshold ~unroll
                 ~inline ())
            ast
        in
        (match mode with
        | Some m ->
          let c = compile m in
          if dump then print_string (Sweep_isa.Program.dump c.program)
          else begin
            let t = Table.create
                [ "mode"; "instrs"; "stores"; "regions"; "ckpts"; "clwbs";
                  "spills"; "unrolled"; "inlined"; "max stores/region" ]
            in
            let label =
              fst (List.find (fun (_, v) -> v = m) mode_assoc)
            in
            Table.add_row t (stats_row label c);
            Table.print t
          end
        | None ->
          let t = Table.create
              [ "mode"; "instrs"; "stores"; "regions"; "ckpts"; "clwbs";
                "spills"; "unrolled"; "inlined"; "max stores/region" ]
          in
          List.iter
            (fun (label, m) -> Table.add_row t (stats_row label (compile m)))
            mode_assoc;
          Table.print t);
        0)

let list_arg =
  Arg.(value & flag & info [ "list" ] ~doc:"List the available workloads.")

let bench_arg =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"WORKLOAD")

let mode_arg =
  let mode_conv =
    Arg.conv
      ( (fun s ->
          match List.assoc_opt (String.lowercase_ascii s) mode_assoc with
          | Some m -> Ok (Some m)
          | None -> Error (`Msg ("unknown mode " ^ s))),
        fun fmt -> function
          | Some m ->
            Format.pp_print_string fmt
              (fst (List.find (fun (_, v) -> v = m) mode_assoc))
          | None -> Format.pp_print_string fmt "all" )
  in
  Arg.(value & opt mode_conv None
       & info [ "m"; "mode" ] ~docv:"MODE"
           ~doc:"Compilation mode: plain, sweep or replay (default: all three).")

let threshold_arg =
  Arg.(value & opt int 64
       & info [ "threshold" ] ~docv:"N"
           ~doc:"Store threshold / persist-buffer size.")

let unroll_arg =
  Arg.(value & opt bool true
       & info [ "unroll" ] ~docv:"BOOL" ~doc:"Enable loop unrolling.")

let inline_arg =
  Arg.(value & flag
       & info [ "inline" ]
           ~doc:"Enable small-function inlining (the paper's §5 extension).")

let dump_arg =
  Arg.(value & flag
       & info [ "dump" ] ~doc:"Print the disassembly instead of statistics \
                               (requires --mode).")

let cmd =
  let doc = "inspect SweepCache compilation of a workload" in
  let term =
    Term.(const main $ list_arg $ bench_arg $ mode_arg $ threshold_arg
          $ unroll_arg $ inline_arg $ dump_arg)
  in
  Cmd.v (Cmd.info "sweepcc" ~doc) term

(* The exit-code contract of the other binaries (README "Exit codes"),
   spelled out here: [Sweep_cli.Cli.eval] would link the experiment
   stack into the compiler driver for one match. *)
let () =
  exit
    (match Cmd.eval_value cmd with
    | Ok (`Ok code) -> code
    | Ok (`Help | `Version) -> 0
    | Error (`Parse | `Term) -> 64 (* EX_USAGE *)
    | Error `Exn -> Cmd.Exit.internal_error)
