module Pipeline = Sweep_compiler.Pipeline
module Config = Sweep_machine.Config
module M = Sweep_machine.Machine_intf
module Nvm = Sweep_mem.Nvm
module Layout = Sweep_isa.Layout

type design =
  | Nvp
  | Wt
  | Nvsram
  | Nvsram_e
  | Replay
  | Nvmr
  | Sweep

let all_designs = [ Nvp; Wt; Nvsram; Nvsram_e; Replay; Nvmr; Sweep ]

let design_name = function
  | Nvp -> "NVP"
  | Wt -> "WT-VCache"
  | Nvsram -> "NVSRAM"
  | Nvsram_e -> "NVSRAM-E"
  | Replay -> "ReplayCache"
  | Nvmr -> "NvMR"
  | Sweep -> "SweepCache"

let compile_mode = function
  | Nvp | Wt | Nvsram | Nvsram_e | Nvmr -> Pipeline.Plain
  | Replay -> Pipeline.Replay
  | Sweep -> Pipeline.Sweep

(* Compilation is a pure function of the effective options and the
   AST, so every job, fleet device and worker of a process shares one
   compiled program per key, as flashed firmware is shared by every
   device it runs on.  The key is a digest rather than the AST itself,
   so large source trees are not kept alive by the table.  A failure is
   memoised too: a hit re-raises the very exception value of the miss.
   Resource exhaustion says nothing about the input and is not stored.
   Compiled programs are shared read-only across domains: nothing after
   [Program.assemble] writes into [code], [labels] or [meta] (machines
   decode the code into arrays of their own). *)
let compile_memo_cap = 64

let compile_memo : (Digest.t, (Pipeline.compiled, exn) result) Sweep_util.Memo.t =
  Sweep_util.Memo.create ~cap:compile_memo_cap ()

let m_memo_hits = Sweep_obs.Metrics.counter "compiler.memo_hits"
let m_memo_misses = Sweep_obs.Metrics.counter "compiler.memo_misses"
let m_memo_entries = Sweep_obs.Metrics.gauge "compiler.memo_entries"

let compile ?(options = Pipeline.default_options) design ast =
  let options = { options with Pipeline.mode = compile_mode design } in
  let key = Digest.string (Marshal.to_string (options, ast) [ Marshal.No_sharing ]) in
  let compiled, hit =
    Sweep_util.Memo.find_or_add compile_memo key (fun () ->
        match Pipeline.compile ~options ast with
        | c -> Ok c
        | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
        | exception e -> Error e)
  in
  Sweep_obs.Metrics.inc (if hit then m_memo_hits else m_memo_misses);
  Sweep_obs.Metrics.set m_memo_entries
    (float_of_int (Sweep_util.Memo.length compile_memo));
  match compiled with Ok c -> c | Error e -> raise e

let clear_compile_memo () =
  Sweep_util.Memo.clear compile_memo;
  Sweep_obs.Metrics.set m_memo_entries 0.0

let machine ?(config = Config.default) design prog =
  match design with
  | Nvp -> Sweep_baselines.Nvp.packed config prog
  | Wt -> Sweep_baselines.Wt_cache.packed config prog
  | Nvsram -> Sweep_baselines.Nvsram.Dirty.packed config prog
  | Nvsram_e -> Sweep_baselines.Nvsram.Entire.packed config prog
  | Replay -> Sweep_baselines.Replaycache.packed config prog
  | Nvmr -> Sweep_baselines.Nvmr.packed config prog
  | Sweep -> Sweepcache_core.Sweepcache.packed config prog

type result = {
  design : design;
  outcome : Driver.outcome;
  machine : M.packed;
  compiled : Pipeline.compiled;
  attrib : Sweep_obs.Attrib.t option;
}

let run ?config ?options ?max_instructions ?max_sim_s ?sim_budget_ns ?fault
    ?after_recovery ?heartbeat ?(attrib = false) design ~power ast =
  let compiled = compile ?options design ast in
  let m = machine ?config design compiled.Pipeline.program in
  let at =
    if attrib then
      Some
        (Sweep_obs.Attrib.create
           ~len:(Array.length compiled.Pipeline.program.Sweep_isa.Program.code))
    else None
  in
  let outcome =
    Driver.run ?max_instructions ?max_sim_s ?sim_budget_ns ?fault
      ?after_recovery ?heartbeat ?attrib:at m ~power
  in
  { design; outcome; machine = m; compiled; attrib = at }

let mstats r = M.mstats r.machine

let cache_miss_rate r =
  match M.cache r.machine with
  | Some cache -> Sweep_mem.Cache.miss_rate cache
  | None -> 0.0

let nvm_writes r = Nvm.write_events (M.nvm r.machine)

let final_globals r =
  let nvm = M.nvm r.machine in
  List.map
    (fun (name, base, words) ->
      (name, Array.init words (fun i -> Nvm.peek_word nvm (base + (i * Layout.word_bytes)))))
    r.compiled.Pipeline.globals

let check_against_interp r ast =
  let expected = Sweep_lang.Interp.globals_image (Sweep_lang.Interp.run ast) in
  let actual = final_globals r in
  let rec compare_lists = function
    | [], [] -> Ok ()
    | (ename, edata) :: erest, (aname, adata) :: arest ->
      if ename <> aname then
        Error (Printf.sprintf "global order mismatch: %s vs %s" ename aname)
      else begin
        let n = Array.length edata in
        let rec scan i =
          if i >= n then compare_lists (erest, arest)
          else if edata.(i) <> adata.(i) then
            Error
              (Printf.sprintf "%s: %s[%d] = %d, expected %d"
                 (design_name r.design) ename i adata.(i) edata.(i))
          else scan (i + 1)
        in
        if Array.length adata <> n then
          Error (Printf.sprintf "%s: length mismatch" ename)
        else scan 0
      end
    | _ -> Error "global count mismatch"
  in
  compare_lists (expected, actual)
