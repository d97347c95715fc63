open Sweep_isa

(* Word storage is a page table: [page_count] slots of [page_words]-word
   Bigarray pages (4 KiB of simulated address space each).  Every slot
   starts out pointing at [zero_page], one all-zero page shared by every
   [t] in the process, so building a machine costs one 4096-slot
   pointer array instead of zero-filling 4 Mi words (32 MiB), and memory
   grows with the pages a run actually writes.  Reads are branch-free
   (page load, word load); writes test the slot against [zero_page] and
   give it a fresh zeroed page on first touch.  Pages are Bigarrays so
   their contents are never walked by the GC.

   Two invariants keep the shared page safe:
   - [zero_page] is never written: every store goes through
     [writable_page], which replaces it before the store;
   - a [t] is never marshalled: unmarshalling would copy [zero_page]
     into a private page that is no longer [==] to it, and the first
     write to one of those slots would then alias every other slot
     sharing that copy.  Only job specs and result summaries cross the
     wire and the result cache. *)
type page = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  pages : page array;
  mutable resident : int;
  mutable read_events : int;
  mutable write_events : int;
  mutable bytes_written : int;
}

let page_shift = 10
let page_words = 1 lsl page_shift
let page_mask = page_words - 1
let word_count = Layout.nvm_bytes / Layout.word_bytes
let page_count = word_count / page_words

(* [Layout.word_bytes] as a literal shift: under [-opaque] the constant
   is a load from another unit, and every access would divide by it. *)
let word_shift = 2
let () = assert (Layout.word_bytes = 1 lsl word_shift)

let new_page () =
  let p = Bigarray.Array1.create Bigarray.int Bigarray.c_layout page_words in
  Bigarray.Array1.fill p 0;
  p

let zero_page = new_page ()

let create () =
  {
    pages = Array.make page_count zero_page;
    resident = 0;
    read_events = 0;
    write_events = 0;
    bytes_written = 0;
  }

let resident_pages t = t.resident

let[@inline never] touch_page t i =
  let p = new_page () in
  Array.unsafe_set t.pages i p;
  t.resident <- t.resident + 1;
  p

(* The page holding word index [w], made private first if it is still
   the shared zero page. *)
let[@inline] writable_page t w =
  let i = w lsr page_shift in
  let p = Array.unsafe_get t.pages i in
  if p != zero_page then p else touch_page t i

(* Address checks: the test inlines into every accessor, the message
   formatting stays on a never-inlined cold path. *)
let[@inline never] bad_word_addr addr =
  if addr land (Layout.word_bytes - 1) <> 0 then
    invalid_arg (Printf.sprintf "Nvm: unaligned word address %#x" addr)
  else invalid_arg (Printf.sprintf "Nvm: address %#x out of range" addr)

let[@inline] check_word_addr addr =
  if
    addr land ((1 lsl word_shift) - 1) <> 0
    || addr < 0 || addr >= Layout.nvm_bytes
  then bad_word_addr addr

(* After [check_word_addr]/[check_line_addr] the word index is provably
   inside [word_count], so the page index is inside [page_count] and
   the accessors skip both bounds checks.  A line is line-aligned and a
   page is a whole number of lines, so a line never straddles pages. *)

let[@inline] get t w =
  Bigarray.Array1.unsafe_get
    (Array.unsafe_get t.pages (w lsr page_shift))
    (w land page_mask)

let read_word t addr =
  check_word_addr addr;
  t.read_events <- t.read_events + 1;
  get t (addr lsr word_shift)

let write_word t addr v =
  check_word_addr addr;
  t.write_events <- t.write_events + 1;
  t.bytes_written <- t.bytes_written + Layout.word_bytes;
  let w = addr lsr word_shift in
  Bigarray.Array1.unsafe_set (writable_page t w) (w land page_mask) v

let[@inline never] bad_line_addr base =
  if base land (Layout.line_bytes - 1) <> 0 then
    invalid_arg (Printf.sprintf "Nvm: unaligned line address %#x" base)
  else invalid_arg (Printf.sprintf "Nvm: line %#x out of range" base)

let[@inline] check_line_addr base =
  if
    base land (Layout.line_bytes - 1) <> 0
    || base < 0
    || base + Layout.line_bytes > Layout.nvm_bytes
  then bad_line_addr base

let read_line t base =
  check_line_addr base;
  t.read_events <- t.read_events + 1;
  let w = base lsr word_shift in
  let p = Array.unsafe_get t.pages (w lsr page_shift) and o = w land page_mask in
  Array.init Layout.words_per_line (fun k -> Bigarray.Array1.unsafe_get p (o + k))

let read_line_into t base ~dst ~dst_pos =
  check_line_addr base;
  t.read_events <- t.read_events + 1;
  let w = base lsr word_shift in
  let p = Array.unsafe_get t.pages (w lsr page_shift) and o = w land page_mask in
  for k = 0 to Layout.words_per_line - 1 do
    dst.(dst_pos + k) <- Bigarray.Array1.unsafe_get p (o + k)
  done

let write_line t base data =
  check_line_addr base;
  assert (Array.length data = Layout.words_per_line);
  t.write_events <- t.write_events + 1;
  t.bytes_written <- t.bytes_written + Layout.line_bytes;
  let w = base lsr word_shift in
  let p = writable_page t w and o = w land page_mask in
  for k = 0 to Layout.words_per_line - 1 do
    Bigarray.Array1.unsafe_set p (o + k) data.(k)
  done

let write_line_from t base ~src ~src_pos =
  check_line_addr base;
  t.write_events <- t.write_events + 1;
  t.bytes_written <- t.bytes_written + Layout.line_bytes;
  let w = base lsr word_shift in
  let p = writable_page t w and o = w land page_mask in
  for k = 0 to Layout.words_per_line - 1 do
    Bigarray.Array1.unsafe_set p (o + k) src.(src_pos + k)
  done

let write_line_torn t base data ~words =
  check_line_addr base;
  assert (Array.length data = Layout.words_per_line);
  if words <= 0 || words >= Layout.words_per_line then
    invalid_arg "Nvm.write_line_torn: words must be in (0, words_per_line)";
  t.write_events <- t.write_events + 1;
  t.bytes_written <- t.bytes_written + (words * Layout.word_bytes);
  let w = base lsr word_shift in
  let p = writable_page t w and o = w land page_mask in
  for k = 0 to words - 1 do
    Bigarray.Array1.unsafe_set p (o + k) data.(k)
  done

let peek_word t addr =
  check_word_addr addr;
  get t (addr lsr word_shift)

let poke_word t addr v =
  check_word_addr addr;
  let w = addr lsr word_shift in
  Bigarray.Array1.unsafe_set (writable_page t w) (w land page_mask) v

let read_events t = t.read_events
let write_events t = t.write_events
let bytes_written t = t.bytes_written

let add_external_writes t ~events ~bytes =
  t.write_events <- t.write_events + events;
  t.bytes_written <- t.bytes_written + bytes

let reset_counters t =
  t.read_events <- 0;
  t.write_events <- 0;
  t.bytes_written <- 0

let image t ~lo ~hi =
  if lo land (Layout.word_bytes - 1) <> 0 || hi land (Layout.word_bytes - 1) <> 0
  then invalid_arg (Printf.sprintf "Nvm: unaligned image range [%#x, %#x)" lo hi);
  if lo < 0 || lo > hi || hi > Layout.nvm_bytes then
    invalid_arg (Printf.sprintf "Nvm: image range [%#x, %#x) out of range" lo hi);
  let w = lo / Layout.word_bytes in
  Array.init ((hi - lo) / Layout.word_bytes) (fun k -> get t (w + k))
