type ('k, 'v) t = {
  lock : Mutex.t;
  table : ('k, 'v) Hashtbl.t;
  order : 'k Queue.t;  (* resident keys, oldest first *)
  cap : int;
}

let create ~cap () =
  if cap < 1 then invalid_arg "Memo.create: cap < 1";
  {
    lock = Mutex.create ();
    table = Hashtbl.create cap;
    order = Queue.create ();
    cap;
  }

let find_or_add t k make =
  match Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.table k) with
  | Some v -> (v, true)
  | None ->
    let v = make () in
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt t.table k with
        | Some first -> (first, false)
        | None ->
          if Hashtbl.length t.table >= t.cap then
            Hashtbl.remove t.table (Queue.pop t.order);
          Hashtbl.add t.table k v;
          Queue.push k t.order;
          (v, false))

let length t = Mutex.protect t.lock (fun () -> Hashtbl.length t.table)

let clear t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.reset t.table;
      Queue.clear t.order)
