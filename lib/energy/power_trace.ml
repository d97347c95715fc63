type kind = Rf_home | Rf_office | Solar | Thermal

let kind_name = function
  | Rf_home -> "RFHome"
  | Rf_office -> "RFOffice"
  | Solar -> "solar"
  | Thermal -> "thermal"

let all_kinds = [ Rf_home; Rf_office; Solar; Thermal ]

(* A trace is a view over a base sample grid: sample [i] is
   [base.((i - shift) mod n) *. factor], zeroed when the dropout mask
   ([Rng.nth_below ~seed:drop_seed i drop_frac]) fires — the canonical
   shift → scale → drop pipeline, computed on read.  A trace straight
   from [make]/[load_csv] is the same record with identity fields, so
   jittering a 600k-sample base costs one record, not three copies.
   [base] is shared (the experiment layer memoises it) and never
   written after construction. *)
type t = {
  kind : kind;
  dt_s : float;
  base : float array; (* watts *)
  shift : int; (* in [0, n) *)
  factor : float;
  drop_frac : float; (* 0.0: no dropout *)
  drop_seed : int;
  tag : string option; (* transform provenance, part of the power key *)
}

let of_base kind dt_s base =
  { kind; dt_s; base; shift = 0; factor = 1.0; drop_frac = 0.0; drop_seed = 0;
    tag = None }

let dt_s = 1.0e-4 (* 100 us *)
let duration_s = 60.0
let sample_count = int_of_float (duration_s /. dt_s)

(* Two-state (on/off) semi-Markov RF source: exponential dwell times, and
   log-normal-ish power during on-periods.  Home and office differ in
   duty cycle and burst length, office being slightly choppier. *)
let gen_rf rng ~p_on_w ~mean_on_s ~mean_off_s samples =
  let i = ref 0 in
  let on = ref true in
  while !i < Array.length samples do
    let dwell =
      Sweep_util.Rng.exponential rng (if !on then mean_on_s else mean_off_s)
    in
    let steps = max 1 (int_of_float (dwell /. dt_s)) in
    let level =
      if !on then p_on_w *. (0.6 +. (0.8 *. Sweep_util.Rng.float rng 1.0))
      else 0.0
    in
    let stop = min (Array.length samples) (!i + steps) in
    for j = !i to stop - 1 do
      samples.(j) <- level
    done;
    i := stop;
    on := not !on
  done

let gen_solar rng samples =
  (* Slow irradiance drift (clouds) on a stable base. *)
  let base = 300.0e-6 in
  let drift = ref 1.0 in
  Array.iteri
    (fun j _ ->
      if j mod 2000 = 0 then begin
        let step = 0.15 *. Sweep_util.Rng.gaussian rng in
        drift := Sweep_util.Stats.clamp ~lo:0.5 ~hi:1.4 (!drift +. step)
      end;
      samples.(j) <- base *. !drift)
    samples

let gen_thermal rng samples =
  let base = 280.0e-6 in
  Array.iteri
    (fun j _ ->
      let noise = 1.0 +. (0.03 *. Sweep_util.Rng.gaussian rng) in
      samples.(j) <- Float.max 0.0 (base *. noise))
    samples

let make ?(seed = 42) kind =
  let rng = Sweep_util.Rng.create (seed + Hashtbl.hash (kind_name kind)) in
  let samples = Array.make sample_count 0.0 in
  (match kind with
  | Rf_home ->
    gen_rf rng ~p_on_w:700.0e-6 ~mean_on_s:0.0020 ~mean_off_s:0.0026 samples
  | Rf_office ->
    gen_rf rng ~p_on_w:650.0e-6 ~mean_on_s:0.0015 ~mean_off_s:0.0020 samples
  | Solar -> gen_solar rng samples
  | Thermal -> gen_thermal rng samples);
  of_base kind dt_s samples

let kind t = t.kind
let length t = Array.length t.base
let sample_dt t = t.dt_s
let tag t = t.tag
let with_tag t tag = { t with tag = Some tag }
let base t = t.base
let factor t = t.factor

let source_index t i =
  let k = i - t.shift in
  if t.drop_frac > 0.0 && Sweep_util.Rng.nth_below ~seed:t.drop_seed i t.drop_frac
  then -1
  else if k < 0 then k + Array.length t.base
  else k

let[@inline] sample t i =
  let k = source_index t i in
  if k < 0 then 0.0 else t.base.(k) *. t.factor

(* No transform is live: [base] is the trace. *)
let flat t = t.shift = 0 && t.factor = 1.0 && t.drop_frac = 0.0

let samples t = if flat t then t.base else Array.init (length t) (sample t)

let power t time_s =
  let idx = int_of_float (time_s /. t.dt_s) in
  let n = length t in
  sample t (((idx mod n) + n) mod n)

let mean_power t =
  Array.fold_left ( +. ) 0.0 (samples t) /. float_of_int (length t)

let duty_cycle t =
  let live =
    Array.fold_left (fun acc p -> if p > 1.0e-6 then acc + 1 else acc) 0 (samples t)
  in
  float_of_int live /. float_of_int (length t)

(* ---- validated transforms (the fleet jitter layer builds on these) ----

   Every transform returns a new trace on the same 100 µs grid; the
   input is never mutated.  Applied in the canonical order (shift, then
   scale, then drop, each at most once) a transform only sets its field
   of the view, O(1).  Out of order or repeated, the input is first
   materialised into a fresh base, so the result is exactly what
   transforming a flat copy would give.  Validation mirrors [load_csv]:
   a transform that would shift timestamps negative (or otherwise break
   the monotone zero-based grid the zero-order-hold lookup assumes) is a
   [Failure], not a silent corruption. *)

let materialise t = { (of_base t.kind t.dt_s (samples t)) with tag = t.tag }

(* Rotate the trace right by [shift_s] seconds: the returned trace at
   time x reads the original at (x - shift_s), wrapping — timestamps
   stay the 0, dt, 2·dt, … grid, so they remain non-negative and
   strictly monotonic by construction.  A negative shift would be a
   left rotation expressible only with negative timestamps pre-wrap;
   reject it (callers wanting one can shift by duration - s). *)
let time_shift t shift_s =
  if not (Float.is_finite shift_s) then
    failwith
      (Printf.sprintf "Power_trace.time_shift: non-finite shift %g" shift_s);
  if shift_s < 0.0 then
    failwith
      (Printf.sprintf
         "Power_trace.time_shift: negative shift %g would produce negative \
          timestamps"
         shift_s);
  let steps = int_of_float ((shift_s /. t.dt_s) +. 0.5) mod length t in
  if steps = 0 then t
  else
    let t = if flat t then t else materialise t in
    { t with shift = steps }

(* Scale every amplitude by [factor] (harvester efficiency / antenna
   gain jitter).  Timestamps are untouched; a negative factor would
   mean negative harvested power, which the capacitor model has no
   interpretation for — reject it along with NaN/inf. *)
let scale t factor =
  if not (Float.is_finite factor) then
    failwith (Printf.sprintf "Power_trace.scale: non-finite factor %g" factor);
  if factor < 0.0 then
    failwith (Printf.sprintf "Power_trace.scale: negative factor %g" factor);
  let t = if t.factor = 1.0 && t.drop_frac = 0.0 then t else materialise t in
  { t with factor }

(* Zero each sample independently with probability [frac] (seeded):
   momentary harvester blackouts.  Samples are zeroed in place on the
   grid, never removed — removing rows would compress the timeline and
   de-monotonize the mapping back to wall time.  Sample [i] is dropped
   when the [i]-th draw of [Rng.create seed] is below [frac]. *)
let drop_samples t ~seed ~frac =
  if not (Float.is_finite frac) || frac < 0.0 || frac > 1.0 then
    failwith
      (Printf.sprintf "Power_trace.drop_samples: fraction %g out of [0, 1]"
         frac);
  if frac = 0.0 then t
  else
    let t = if t.drop_frac = 0.0 then t else materialise t in
    { t with drop_frac = frac; drop_seed = seed }

let save_csv t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "time_s,power_w\n";
      Array.iteri
        (fun idx p ->
          Printf.fprintf oc "%.6f,%.9f\n" (float_of_int idx *. t.dt_s) p)
        (samples t))

let load_csv ?(kind = Rf_office) path =
  let ic = open_in path in
  let rows = ref [] in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      (try
         while true do
           let line = String.trim (input_line ic) in
           if line <> "" then
             match String.split_on_char ',' line with
             | [ a; b ] -> (
               match (float_of_string_opt a, float_of_string_opt b) with
               | Some time_s, Some p -> rows := (time_s, p) :: !rows
               | None, _ when !rows = [] -> () (* header *)
               | _ -> failwith ("Power_trace.load_csv: bad row " ^ line))
             | _ -> failwith ("Power_trace.load_csv: bad row " ^ line)
         done
       with End_of_file -> ()));
  let rows = List.rev !rows in
  if rows = [] then failwith "Power_trace.load_csv: empty trace";
  (* A negative or non-increasing timestamp would silently corrupt the
     zero-order hold below (earlier rows shadow later ones), and with it
     every outage count downstream — reject the file instead. *)
  ignore
    (List.fold_left
       (fun (prev, row) (ts, _) ->
         if ts < 0.0 then
           failwith
             (Printf.sprintf
                "Power_trace.load_csv: negative timestamp %g (row %d)" ts row);
         if ts <= prev then
           failwith
             (Printf.sprintf
                "Power_trace.load_csv: non-monotonic timestamp %g after %g \
                 (row %d)"
                ts prev row);
         (ts, row + 1))
       (Float.neg_infinity, 1) rows);
  let duration = List.fold_left (fun acc (ts, _) -> Float.max acc ts) 0.0 rows in
  let n = max 1 (int_of_float (duration /. dt_s) + 1) in
  let samples = Array.make n 0.0 in
  (* Zero-order hold: each row's power applies from its timestamp on. *)
  let rec fill rows idx current =
    if idx >= n then ()
    else begin
      let time = float_of_int idx *. dt_s in
      match rows with
      | (ts, p) :: rest when ts <= time -> fill rest idx p
      | _ ->
        samples.(idx) <- current;
        fill rows (idx + 1) current
    end
  in
  fill rows 0 (snd (List.hd rows));
  of_base kind dt_s samples
