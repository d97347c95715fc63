type label = string

type item =
  | Label of label
  | Ins of label Instr.t

type data = { addrs : int array; values : int array }

let no_data = { addrs = [||]; values = [||] }

type meta = {
  functions : (string * label) list;
  initial_data : data;
}

type t = {
  code : int Instr.t array;
  entry : int;
  labels : (label * int) list;
  layout : Layout.t;
  meta : meta;
}

exception Undefined_label of string
exception Duplicate_label of string

let empty_meta = { functions = []; initial_data = no_data }

let assemble ?(meta = empty_meta) ~layout ~entry items =
  let table = Hashtbl.create 64 in
  (* First pass: instruction indices for every label. *)
  let count =
    List.fold_left
      (fun idx item ->
        match item with
        | Label l ->
          if Hashtbl.mem table l then raise (Duplicate_label l);
          Hashtbl.add table l idx;
          idx
        | Ins _ -> idx + 1)
      0 items
  in
  let resolve l =
    match Hashtbl.find_opt table l with
    | Some idx -> idx
    | None -> raise (Undefined_label l)
  in
  let code = Array.make (max count 1) (Instr.Halt : int Instr.t) in
  let fill idx item =
    match item with
    | Label _ -> idx
    | Ins ins ->
      code.(idx) <- Instr.map_label resolve ins;
      idx + 1
  in
  let filled = List.fold_left fill 0 items in
  assert (filled = count);
  let labels = Hashtbl.fold (fun l idx acc -> (l, idx) :: acc) table [] in
  let labels = List.sort (fun (_, a) (_, b) -> compare a b) labels in
  { code; entry = resolve entry; labels; layout; meta }

let label_index t l =
  match List.assoc_opt l t.labels with
  | Some idx -> idx
  | None -> raise Not_found

let static_instruction_count t =
  Array.fold_left
    (fun acc ins -> match ins with Instr.Nop -> acc | _ -> acc + 1)
    0 t.code

let static_store_count t =
  Array.fold_left
    (fun acc ins -> if Instr.is_store ins then acc + 1 else acc)
    0 t.code

let region_end_count t =
  Array.fold_left
    (fun acc ins -> match ins with Instr.Region_end -> acc + 1 | _ -> acc)
    0 t.code

let dump t =
  let buf = Buffer.create 4096 in
  let labels_at idx =
    List.filter_map (fun (l, i) -> if i = idx then Some l else None) t.labels
  in
  Array.iteri
    (fun idx ins ->
      List.iter (fun l -> Buffer.add_string buf (l ^ ":\n")) (labels_at idx);
      Buffer.add_string buf
        (Printf.sprintf "  %4d  %s\n" idx (Instr.to_string string_of_int ins)))
    t.code;
  Buffer.contents buf
