type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let s = int64 t in
  { state = s }

let int t bound =
  assert (bound > 0);
  (* Drop two top bits so the value fits OCaml's 63-bit int positively. *)
  let r = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  r mod bound

(* 53 random bits scaled into [0, 1). *)
let[@inline] unit_float z =
  Int64.to_float (Int64.shift_right_logical z 11) /. 9007199254740992.0

let float t bound = unit_float (int64 t) *. bound

(* The state after [i + 1] steps is [seed + (i + 1)·γ] (mod 2^64), so
   any draw of the stream is one multiply-add and a [mix] away. *)
let[@inline] nth_float ~seed i =
  unit_float
    (mix (Int64.add (Int64.of_int seed) (Int64.mul (Int64.of_int (i + 1)) golden_gamma)))

let nth_below ~seed i p = nth_float ~seed i < p

let bool t = Int64.logand (int64 t) 1L = 1L

let gaussian t =
  let rec draw () =
    let u = (2.0 *. float t 1.0) -. 1.0 in
    let v = (2.0 *. float t 1.0) -. 1.0 in
    let s = (u *. u) +. (v *. v) in
    if s >= 1.0 || s = 0.0 then draw ()
    else u *. sqrt (-2.0 *. log s /. s)
  in
  draw ()

let exponential t mean =
  let u = 1.0 -. float t 1.0 in
  -.mean *. log u

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
