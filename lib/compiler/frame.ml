open Sweep_isa

type entry = { base : int; words : int }

type frame = {
  params : int array;
  result : int;
  link : int;
  mutable spills : int list;
}

type t = {
  mutable cursor : int;
  globals : (string, entry) Hashtbl.t;
  mutable global_order : (string * entry) list; (* reversed *)
  frames : (string, frame) Hashtbl.t;
  mutable init : (int * int) list;
  mutable globals_hi : int;
}

let create () =
  {
    cursor = Layout.default_data_base;
    globals = Hashtbl.create 32;
    global_order = [];
    frames = Hashtbl.create 16;
    init = [];
    globals_hi = Layout.default_data_base;
  }

let align t boundary =
  let rem = t.cursor mod boundary in
  if rem <> 0 then t.cursor <- t.cursor + (boundary - rem)

let alloc_words t n =
  let base = t.cursor in
  t.cursor <- t.cursor + (n * Layout.word_bytes);
  if t.cursor > Layout.default_ckpt_base then
    failwith "Frame: data region overflow";
  base

let add_globals t globals =
  List.iter
    (fun gl ->
      match gl with
      | Sweep_lang.Ast.Scalar (name, init) ->
        let base = alloc_words t 1 in
        Hashtbl.replace t.globals name { base; words = 1 };
        t.global_order <- (name, { base; words = 1 }) :: t.global_order;
        if init <> 0 then t.init <- (base, init) :: t.init
      | Sweep_lang.Ast.Array (name, len, data) ->
        align t Layout.line_bytes;
        let base = alloc_words t len in
        Hashtbl.replace t.globals name { base; words = len };
        t.global_order <- (name, { base; words = len }) :: t.global_order;
        Array.iteri
          (fun i v ->
            if v <> 0 then
              t.init <- (base + (i * Layout.word_bytes), v) :: t.init)
          data)
    globals;
  t.globals_hi <- t.cursor

let find_global t name =
  match Hashtbl.find_opt t.globals name with
  | Some e -> e
  | None -> invalid_arg ("Frame: unknown global " ^ name)

let global_addr t name = (find_global t name).base
let array_length t name = (find_global t name).words

let declare_func t name ~arity =
  let params = Array.init arity (fun _ -> alloc_words t 1) in
  let result = alloc_words t 1 in
  let link = alloc_words t 1 in
  Hashtbl.replace t.frames name { params; result; link; spills = [] }

let find_frame t name =
  match Hashtbl.find_opt t.frames name with
  | Some f -> f
  | None -> invalid_arg ("Frame: unknown function " ^ name)

let param_slot t name i = (find_frame t name).params.(i)
let result_slot t name = (find_frame t name).result
let link_slot t name = (find_frame t name).link

let alloc_spill t name =
  let f = find_frame t name in
  let slot = alloc_words t 1 in
  f.spills <- slot :: f.spills;
  slot

let data_limit t = t.cursor
(* [init] is newest-first, and that is the loader's poke order. *)
let initial_data t =
  {
    Program.addrs = Array.of_list (List.map fst t.init);
    values = Array.of_list (List.map snd t.init);
  }
let globals_extent t = (Layout.default_data_base, t.globals_hi)

let global_names t =
  List.rev_map (fun (name, e) -> (name, e.base, e.words)) t.global_order
