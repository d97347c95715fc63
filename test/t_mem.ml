(* Tests for the NVM and cache models. *)
module Nvm = Sweep_mem.Nvm
module Cache = Sweep_mem.Cache
module Layout = Sweep_isa.Layout

let check = Alcotest.check

(* The word-index bounds asserts are off by default (hot path); keep
   them armed for the whole memory suite so layout bugs fail loudly. *)
let () = Cache.set_debug_checks true

let test_nvm_rw () =
  let nvm = Nvm.create () in
  Nvm.write_word nvm 0x100 42;
  check Alcotest.int "read back" 42 (Nvm.read_word nvm 0x100);
  check Alcotest.int "unwritten is zero" 0 (Nvm.read_word nvm 0x104)

let test_nvm_counters () =
  let nvm = Nvm.create () in
  Nvm.write_word nvm 0x40 1;
  Nvm.write_line nvm 0x80 (Array.make 16 9);
  ignore (Nvm.read_word nvm 0x40);
  ignore (Nvm.read_line nvm 0x80);
  check Alcotest.int "write events" 2 (Nvm.write_events nvm);
  check Alcotest.int "read events" 2 (Nvm.read_events nvm);
  check Alcotest.int "bytes" (4 + 64) (Nvm.bytes_written nvm);
  Nvm.reset_counters nvm;
  check Alcotest.int "reset" 0 (Nvm.write_events nvm)

let test_nvm_peek_poke_uncounted () =
  let nvm = Nvm.create () in
  Nvm.poke_word nvm 0x10 5;
  check Alcotest.int "poke visible" 5 (Nvm.peek_word nvm 0x10);
  check Alcotest.int "no events" 0 (Nvm.read_events nvm + Nvm.write_events nvm)

let test_nvm_alignment () =
  let nvm = Nvm.create () in
  Alcotest.(check bool) "unaligned word raises" true
    (match Nvm.read_word nvm 0x3 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "unaligned line raises" true
    (match Nvm.read_line nvm 0x20 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "out of range raises" true
    (match Nvm.read_word nvm Layout.nvm_bytes with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_nvm_line_word_agree () =
  let nvm = Nvm.create () in
  let data = Array.init 16 (fun k -> k * 11) in
  Nvm.write_line nvm 0x1000 data;
  check Alcotest.int "word 5 of line" 55 (Nvm.read_word nvm (0x1000 + 20))

let test_nvm_image () =
  let nvm = Nvm.create () in
  Nvm.poke_word nvm 0x100 1;
  Nvm.poke_word nvm 0x104 2;
  check (Alcotest.array Alcotest.int) "image" [| 1; 2 |]
    (Nvm.image nvm ~lo:0x100 ~hi:0x108)

let raises_nvm_invalid f =
  match f () with
  | _ -> false
  | exception Invalid_argument msg -> String.starts_with ~prefix:"Nvm:" msg

let test_nvm_image_bounds () =
  let nvm = Nvm.create () in
  let top = Layout.nvm_bytes in
  Nvm.poke_word nvm (top - 4) 7;
  check (Alcotest.array Alcotest.int) "hi = nvm_bytes is legal" [| 0; 7 |]
    (Nvm.image nvm ~lo:(top - 8) ~hi:top);
  check Alcotest.int "empty range at the top" 0
    (Array.length (Nvm.image nvm ~lo:top ~hi:top));
  Alcotest.(check bool) "lo > hi raises" true
    (raises_nvm_invalid (fun () -> Nvm.image nvm ~lo:0x108 ~hi:0x100));
  Alcotest.(check bool) "hi past the end raises" true
    (raises_nvm_invalid (fun () -> Nvm.image nvm ~lo:(top - 4) ~hi:(top + 4)));
  Alcotest.(check bool) "negative lo raises" true
    (raises_nvm_invalid (fun () -> Nvm.image nvm ~lo:(-4) ~hi:0));
  Alcotest.(check bool) "unaligned hi raises" true
    (raises_nvm_invalid (fun () -> Nvm.image nvm ~lo:0 ~hi:6))

(* Differential check of the paged store against a flat word array.
   Addresses cluster on page edges (k·4096 ± 4, ± 64), address 0 and the
   last line, where a page-indexing slip would show. *)

let page_bytes = 4096
let nvm_words = Layout.nvm_bytes / Layout.word_bytes

type op =
  | Write_word of int * int
  | Write_line of int * int array
  | Write_line_from of int * int * int array
  | Write_line_torn of int * int * int array
  | Poke_word of int * int
  | Read_word of int
  | Peek_word of int
  | Read_line of int
  | Read_line_into of int * int
  | Image of int * int

let show_op = function
  | Write_word (a, _) -> Printf.sprintf "write_word %#x" a
  | Write_line (a, _) -> Printf.sprintf "write_line %#x" a
  | Write_line_from (a, p, _) -> Printf.sprintf "write_line_from %#x @%d" a p
  | Write_line_torn (a, w, _) -> Printf.sprintf "write_line_torn %#x ~words:%d" a w
  | Poke_word (a, _) -> Printf.sprintf "poke_word %#x" a
  | Read_word a -> Printf.sprintf "read_word %#x" a
  | Peek_word a -> Printf.sprintf "peek_word %#x" a
  | Read_line a -> Printf.sprintf "read_line %#x" a
  | Read_line_into (a, p) -> Printf.sprintf "read_line_into %#x @%d" a p
  | Image (lo, hi) -> Printf.sprintf "image [%#x, %#x)" lo hi

let gen_ops =
  let open QCheck2.Gen in
  let near_edge =
    map3
      (fun k d j -> (k * page_bytes) + d + (4 * j))
      (frequency
         [ (4, oneofl [ 0; 1; 2; 255; 256; 4095; 4096 ]); (1, int_range 0 4096) ])
      (oneofl [ -64; -4; 0; 4; 64 ])
      (int_range (-2) 2)
  in
  let addr =
    map
      (fun a -> max 0 (min (Layout.nvm_bytes - 4) a) land lnot 3)
      (frequency
         [
           (8, near_edge);
           (1, return 0);
           (1, return (Layout.nvm_bytes - Layout.line_bytes));
           (1, map (fun w -> 4 * w) (int_range 0 (nvm_words - 1)));
         ])
  in
  let line = map Layout.line_base addr in
  let line_data = array_size (return Layout.words_per_line) int in
  let op =
    frequency
      [
        (3, map2 (fun a v -> Write_word (a, v)) addr int);
        (2, map2 (fun a d -> Write_line (a, d)) line line_data);
        ( 2,
          map3
            (fun a p d -> Write_line_from (a, p, Array.append (Array.make p (-1)) d))
            line (int_range 0 5) line_data );
        ( 2,
          map3 (fun a w d -> Write_line_torn (a, w, d)) line
            (int_range 1 (Layout.words_per_line - 1))
            line_data );
        (2, map2 (fun a v -> Poke_word (a, v)) addr int);
        (3, map (fun a -> Read_word a) addr);
        (2, map (fun a -> Peek_word a) addr);
        (2, map (fun a -> Read_line a) line);
        (2, map2 (fun a p -> Read_line_into (a, p)) line (int_range 0 5));
        ( 1,
          map2
            (fun lo n -> Image (lo, min Layout.nvm_bytes (lo + (4 * n))))
            addr (int_range 0 2048) );
      ]
  in
  list_size (int_range 1 60) op

(* One flat model shared by every case; each case zeroes the words it
   wrote on the way out, so no case pays for a 4 Mi-word fill. *)
let model = Array.make nvm_words 0

let prop_nvm_paged_matches_flat =
  QCheck2.Test.make ~name:"nvm: paged store matches a flat model" ~count:200
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    gen_ops
    (fun ops ->
      let nvm = Nvm.create () in
      let written = Hashtbl.create 64 in
      let reads = ref 0 and writes = ref 0 and bytes = ref 0 in
      let set a v =
        Hashtbl.replace written (a / 4) ();
        model.(a / 4) <- v
      in
      let get a = model.(a / 4) in
      let line_is a words =
        Array.for_all Fun.id (Array.mapi (fun k v -> v = get (a + (4 * k))) words)
      in
      let step = function
        | Write_word (a, v) ->
            Nvm.write_word nvm a v;
            set a v;
            incr writes;
            bytes := !bytes + 4;
            true
        | Write_line (a, d) ->
            Nvm.write_line nvm a d;
            Array.iteri (fun k v -> set (a + (4 * k)) v) d;
            incr writes;
            bytes := !bytes + Layout.line_bytes;
            true
        | Write_line_from (a, p, src) ->
            Nvm.write_line_from nvm a ~src ~src_pos:p;
            for k = 0 to Layout.words_per_line - 1 do
              set (a + (4 * k)) src.(p + k)
            done;
            incr writes;
            bytes := !bytes + Layout.line_bytes;
            true
        | Write_line_torn (a, w, d) ->
            Nvm.write_line_torn nvm a d ~words:w;
            for k = 0 to w - 1 do
              set (a + (4 * k)) d.(k)
            done;
            incr writes;
            bytes := !bytes + (4 * w);
            true
        | Poke_word (a, v) ->
            Nvm.poke_word nvm a v;
            set a v;
            true
        | Read_word a ->
            incr reads;
            Nvm.read_word nvm a = get a
        | Peek_word a -> Nvm.peek_word nvm a = get a
        | Read_line a ->
            incr reads;
            line_is a (Nvm.read_line nvm a)
        | Read_line_into (a, p) ->
            incr reads;
            let dst = Array.make (p + Layout.words_per_line) (-1) in
            Nvm.read_line_into nvm a ~dst ~dst_pos:p;
            Array.for_all (( = ) (-1)) (Array.sub dst 0 p)
            && line_is a (Array.sub dst p Layout.words_per_line)
        | Image (lo, hi) ->
            Nvm.image nvm ~lo ~hi = Array.sub model (lo / 4) ((hi - lo) / 4)
      in
      let ok = List.for_all step ops in
      let pages = Hashtbl.create 16 in
      Hashtbl.iter (fun w () -> Hashtbl.replace pages (w * 4 / page_bytes) ()) written;
      Hashtbl.iter (fun w () -> model.(w) <- 0) written;
      ok
      && Nvm.read_events nvm = !reads
      && Nvm.write_events nvm = !writes
      && Nvm.bytes_written nvm = !bytes
      && Nvm.resident_pages nvm = Hashtbl.length pages)

(* Every fresh NVM shares one read-only zero page; writing a whole page
   of one instance must never show through in another, on the same
   domain or a different one. *)
let page_at = 7 * page_bytes

let fill_page nvm =
  for k = 0 to (page_bytes / 4) - 1 do
    Nvm.write_word nvm (page_at + (4 * k)) (k + 1)
  done

let page_is_zero nvm =
  let ok = ref true in
  for k = 0 to (page_bytes / 4) - 1 do
    if Nvm.peek_word nvm (page_at + (4 * k)) <> 0 then ok := false
  done;
  !ok

let test_nvm_zero_page_isolation () =
  let a = Nvm.create () and b = Nvm.create () in
  fill_page a;
  Alcotest.(check bool) "second instance still zero" true (page_is_zero b);
  Alcotest.(check bool) "fresh instance still zero" true
    (page_is_zero (Nvm.create ()));
  check Alcotest.int "neighbour page of the writer untouched" 0
    (Nvm.read_word a (page_at + page_bytes));
  check Alcotest.int "writer reads its own data" 1024
    (Nvm.read_word a (page_at + page_bytes - 4));
  let filled = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        let a = Nvm.create () in
        fill_page a;
        Atomic.set filled true;
        Nvm.peek_word a page_at)
  in
  let reader =
    Domain.spawn (fun () ->
        let b = Nvm.create () in
        let before = page_is_zero b in
        while not (Atomic.get filled) do
          Domain.cpu_relax ()
        done;
        before && page_is_zero b && page_is_zero (Nvm.create ()))
  in
  check Alcotest.int "writer domain sees its write" 1 (Domain.join writer);
  Alcotest.(check bool) "reader domain still zero" true (Domain.join reader)

let make_cache () = Cache.create ~size_bytes:1024 ~assoc:2

let test_cache_geometry () =
  let c = make_cache () in
  check Alcotest.int "line count" 16 (Cache.line_count c);
  check Alcotest.int "size" 1024 (Cache.size_bytes c);
  check Alcotest.int "assoc" 2 (Cache.assoc c);
  Alcotest.(check bool) "bad size raises" true
    (match Cache.create ~size_bytes:1000 ~assoc:2 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_cache_install_find () =
  let c = make_cache () in
  let data = Array.init 16 (fun k -> k + 100) in
  let li = Cache.install c 0x2000 data in
  check Alcotest.int "read word" 103 (Cache.read_word c li 0x200C);
  let hit = Cache.find c 0x2004 in
  Alcotest.(check bool) "find same line" true (hit = li);
  Alcotest.(check bool) "other line misses" true
    (Cache.find c 0x4000 = Cache.no_line)

let test_cache_write_word () =
  let c = make_cache () in
  let li = Cache.install c 0 (Array.make 16 0) in
  Cache.write_word c li 8 77;
  check Alcotest.int "written" 77 (Cache.read_word c li 8)

let test_cache_lru_eviction () =
  let c = make_cache () in
  (* 8 sets: addresses 0, 0x2000 and 0x4000 all map to set 0. *)
  let l0 = Cache.install c 0x0 (Array.make 16 1) in
  let l1 = Cache.install c 0x2000 (Array.make 16 2) in
  Cache.touch c l0;
  (* l1 is now LRU; the next fill of set 0 must evict it. *)
  let victim = Cache.victim c 0x4000 in
  check Alcotest.int "victim is LRU" (Cache.line_addr c l1)
    (Cache.line_addr c victim);
  ignore (Cache.install c 0x4000 (Array.make 16 3));
  Alcotest.(check bool) "evicted line gone" true
    (Cache.find c 0x2000 = Cache.no_line);
  Alcotest.(check bool) "touched line survives" true
    (Cache.find c 0x0 <> Cache.no_line)

let test_cache_victim_prefers_invalid () =
  let c = make_cache () in
  ignore (Cache.install c 0x0 (Array.make 16 1));
  let victim = Cache.victim c 0x2000 in
  Alcotest.(check bool) "invalid way preferred" true (not (Cache.valid c victim))

let test_cache_dirty_tracking () =
  let c = make_cache () in
  let l0 = Cache.install c 0x0 (Array.make 16 0) in
  let _l1 = Cache.install c 0x40 (Array.make 16 0) in
  Cache.set_dirty c l0 ~region:7;
  check Alcotest.int "dirty region recorded" 7 (Cache.dirty_region c l0);
  check Alcotest.int "one dirty line" 1 (List.length (Cache.dirty_lines c));
  Cache.clean_all c;
  check Alcotest.int "clean_all clears" 0 (List.length (Cache.dirty_lines c));
  Alcotest.(check bool) "data survives clean" true
    (Cache.find c 0x0 <> Cache.no_line);
  Cache.invalidate_all c;
  Alcotest.(check bool) "invalidate drops" true
    (Cache.find c 0x0 = Cache.no_line)

let test_cache_counters () =
  let c = make_cache () in
  let li = Cache.install c 0x2000 (Array.init 16 (fun i -> 100 + i)) in
  (* [probe]: a hit is counted and returns the word's slot in [data]; a
     miss counts nothing until the caller's [record_miss]. *)
  let slot = Cache.probe c 0x200C in
  check Alcotest.int "probe slot" (Cache.data_pos c li + 3) slot;
  check Alcotest.int "slot holds the word" 103 (Cache.data c).(slot);
  check Alcotest.int "line of the slot" li (slot lsr Cache.slot_shift);
  ignore (Cache.probe c 0x2000);
  check Alcotest.int "probe miss" Cache.no_line (Cache.probe c 0x4000);
  Cache.record_miss c;
  check Alcotest.int "hits" 2 (Cache.hits c);
  check Alcotest.int "misses" 1 (Cache.misses c);
  check (Alcotest.float 1e-9) "miss rate" (1.0 /. 3.0) (Cache.miss_rate c);
  Cache.reset_counters c;
  check (Alcotest.float 1e-9) "empty rate" 0.0 (Cache.miss_rate c)

let prop_cache_set_discipline =
  QCheck2.Test.make ~name:"cache: at most assoc lines per set" ~count:100
    QCheck2.Gen.(list_size (int_range 1 80) (int_range 0 255))
    (fun line_ids ->
      let c = make_cache () in
      List.iter
        (fun id -> ignore (Cache.install c (id * 64) (Array.make 16 id)))
        line_ids;
      (* Count lines per set. *)
      let sets = Hashtbl.create 16 in
      Cache.iter_lines c (fun li ->
          if Cache.valid c li then begin
            let set = Cache.line_addr c li / 64 mod 8 in
            Hashtbl.replace sets set
              (1 + Option.value ~default:0 (Hashtbl.find_opt sets set))
          end);
      Hashtbl.fold (fun _ n ok -> ok && n <= 2) sets true)

let prop_cache_find_returns_installed =
  QCheck2.Test.make ~name:"cache: find returns latest install" ~count:100
    QCheck2.Gen.(list_size (int_range 1 40) (int_range 0 31))
    (fun ids ->
      let c = make_cache () in
      let last = Hashtbl.create 8 in
      List.iteri
        (fun i id ->
          ignore (Cache.install c (id * 64) (Array.make 16 i));
          Hashtbl.replace last id i)
        ids;
      Hashtbl.fold
        (fun id stamp ok ->
          ok
          &&
          let li = Cache.find c (id * 64) in
          li = Cache.no_line (* may have been evicted *)
          || Cache.read_word c li (id * 64) = stamp)
        last true)

let suite =
  [
    Alcotest.test_case "nvm read/write" `Quick test_nvm_rw;
    Alcotest.test_case "nvm counters" `Quick test_nvm_counters;
    Alcotest.test_case "nvm peek/poke" `Quick test_nvm_peek_poke_uncounted;
    Alcotest.test_case "nvm alignment" `Quick test_nvm_alignment;
    Alcotest.test_case "nvm line/word agree" `Quick test_nvm_line_word_agree;
    Alcotest.test_case "nvm image" `Quick test_nvm_image;
    Alcotest.test_case "nvm image bounds" `Quick test_nvm_image_bounds;
    Alcotest.test_case "nvm zero-page isolation" `Quick
      test_nvm_zero_page_isolation;
    Alcotest.test_case "cache geometry" `Quick test_cache_geometry;
    Alcotest.test_case "cache install/find" `Quick test_cache_install_find;
    Alcotest.test_case "cache write word" `Quick test_cache_write_word;
    Alcotest.test_case "cache LRU" `Quick test_cache_lru_eviction;
    Alcotest.test_case "cache invalid preferred" `Quick
      test_cache_victim_prefers_invalid;
    Alcotest.test_case "cache dirty tracking" `Quick test_cache_dirty_tracking;
    Alcotest.test_case "cache counters" `Quick test_cache_counters;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_nvm_paged_matches_flat;
        prop_cache_set_discipline;
        prop_cache_find_returns_installed;
      ]
