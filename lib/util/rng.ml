(* xoshiro256** with the 256-bit state held in a [Bytes.t].  The mutable
   int64-field record this replaces boxed every intermediate (each
   [Int64] store allocates); [Bytes.get_int64_le]/[set_int64_le] are
   compiler primitives, so the whole step runs on unboxed int64 locals
   and the hot path ([bits64] fires on every simulated syscall and every
   touched page through the noise plumbing) allocates only its boxed
   result.  The draw sequence is bit-identical to the record version. *)
type t = Bytes.t

let get = Bytes.get_int64_le
let set = Bytes.set_int64_le

(* splitmix64 is used only to expand the seed into the xoshiro state. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create ~seed =
  let state = ref (Int64.of_int seed) in
  let t = Bytes.create 32 in
  set t 0 (splitmix64 state);
  set t 8 (splitmix64 state);
  set t 16 (splitmix64 state);
  set t 24 (splitmix64 state);
  t

(* The state transition alone.  The output is a function of [s1] before
   the step, so callers read it first: [bits64] boxes it, [top53] keeps
   it an immediate. *)
let advance t =
  let open Int64 in
  let s0 = get t 0 and s1 = get t 8 and s2 = get t 16 and s3 = get t 24 in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  let s2 = logxor s2 tmp in
  let s3 = logor (shift_left s3 45) (shift_right_logical s3 19) in
  set t 0 s0;
  set t 8 s1;
  set t 16 s2;
  set t 24 s3

(* xoshiro256**'s output scrambler; rotl written out so no intermediate
   crosses a function boundary *)
let bits64 t =
  let open Int64 in
  let r = mul (get t 8) 5L in
  let result = mul (logor (shift_left r 7) (shift_right_logical r 57)) 9L in
  advance t;
  result

(* The top 53 bits of the next [bits64] as an unboxed int: the mantissa
   [float] scales.  Same state step, no boxed result. *)
let top53 t =
  let open Int64 in
  let r = mul (get t 8) 5L in
  let result = mul (logor (shift_left r 7) (shift_right_logical r 57)) 9L in
  advance t;
  to_int (shift_right_logical result 11)

let split t =
  let seed = Int64.to_int (bits64 t) land max_int in
  create ~seed

let copy t = Bytes.copy t

(* Rejection sampling to avoid modulo bias.  Top-level so the hot path
   ([int] runs on every simulated syscall via the noise plumbing) does not
   allocate a closure per call. *)
let rec draw_int t bound64 limit =
  let raw = Int64.shift_right_logical (bits64 t) 1 in
  let candidate = Int64.rem raw bound64 in
  if Int64.sub raw candidate > limit then draw_int t bound64 limit
  else Int64.to_int candidate

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let bound64 = Int64.of_int bound in
  draw_int t bound64 (Int64.sub Int64.max_int (Int64.sub bound64 1L))

let int_in t ~min ~max =
  if max < min then invalid_arg "Rng.int_in: max < min";
  min + int t (max - min + 1)

let unit_of_top53 r = float_of_int r *. (1.0 /. 9007199254740992.0)
let float t bound = unit_of_top53 (top53 t) *. bound

let bool t = Int64.logand (bits64 t) 1L = 1L

(* A unit draw is 0 exactly when its 53 bits are. *)
let rec non_zero_top53 t =
  let r = top53 t in
  if r = 0 then non_zero_top53 t else r

let non_zero_unit t = unit_of_top53 (non_zero_top53 t)

let gaussian t ~mu ~sigma =
  let u1 = non_zero_unit t in
  let u2 = float t 1.0 in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

(* The lognormal multiplier of the uniforms [u1] (non-zero) and [u2]:
   the one formula behind [lognormal_factor] and the tick sampler. *)
let factor_of ~sigma u1 u2 =
  let mu = -.(sigma *. sigma) /. 2.0 in
  exp (mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)))

(* Fused lognormal multiplier, exp(gaussian) with mu = -sigma^2/2 (mean
   1.0).  Lives here rather than in [Dist] so the per-page noise path
   pays one cross-module call and one boxed result; draw-for-draw
   identical to [exp (gaussian t ~mu ~sigma)]. *)
let lognormal_factor t ~sigma =
  if sigma = 0.0 then 1.0
  else begin
    let u1 = non_zero_unit t in
    let u2 = float t 1.0 in
    factor_of ~sigma u1 u2
  end

(* ---- tick-quantised lognormal samples ---- *)

(* A timer reading of [ns]: rounded down to the resolution, never below
   one tick. *)
let tick_of ~res ns = max res (if res <= 1 then ns else ns / res * res)

let noisy_tick ~sigma ~res raw u1 u2 =
  tick_of ~res (max 0 (int_of_float (float_of_int raw *. factor_of ~sigma u1 u2)))

let lognormal_tick t ~sigma ~res raw =
  if sigma = 0.0 || raw = 0 then tick_of ~res raw
  else begin
    let u1 = non_zero_unit t in
    let u2 = float t 1.0 in
    noisy_tick ~sigma ~res raw u1 u2
  end

type tick = {
  tk_sigma : float;
  tk_res : int;
  tk_raw : int;
  tk_value : int;  (* the sample whenever [u1 > tk_bound] *)
  tk_bound : float;  (* >= 1.0: never (u1 < 1) *)
}

(* Which u1 pin the sample to one tick.  A sample is [tick_of (floor x)]
   for [x = raw * exp (mu + sigma * r * c)], [r = sqrt (-2 ln u1)],
   [c = cos (2 pi u2)] in [-1, 1], [mu = -sigma^2/2].  The tick [v0] of
   the median [x0 = raw * exp mu] is held by every [x] in one interval
   [[lo, hi)]: the quantum [q] (the resolution, or 1 below 2) cell of
   [x0], widened to [[0, (floor (res / q) + 1) * q)] when [v0] is the
   one-tick floor [res].  Because [exp] is monotone, whatever [c] is,
   [x] stays in [[lo, hi)] when
     |sigma| * r < m = min (ln (hi / raw) - mu, mu - ln (lo / raw))
   (the second term absent for [lo = 0]), that is when
     u1 > exp (-(m / sigma)^2 / 2).
   [m] is shrunk by a margin of 1e-9 times the size of the terms
   involved before the bound is taken: the computed sample carries a
   relative error of a few ulps (~1e-16) of those terms from [log],
   [sqrt], [cos], [exp] and the products, six orders of magnitude
   smaller.  A centre within that margin of a cell edge yields [m <= 0]:
   no shortcut, every sample takes the reference formula. *)
let tick ~sigma ~res raw =
  let never = 2.0 in
  let value, bound =
    if sigma = 0.0 || raw <= 0 then (tick_of ~res raw, never)
    else begin
      let mu = -.(sigma *. sigma) /. 2.0 in
      let rawf = float_of_int raw in
      let n0 = int_of_float (rawf *. exp mu) in
      let v0 = tick_of ~res n0 in
      let q = if res <= 1 then 1 else res in
      let k0 = n0 / q in
      let floor_tick = q * k0 <= res in
      let lo = if floor_tick then 0 else k0 * q in
      let hi = ((if floor_tick then res / q else k0) + 1) * q in
      let up = log (float_of_int hi /. rawf) in
      let down = if lo = 0 then 0.0 else log (float_of_int lo /. rawf) in
      let m = if lo = 0 then up -. mu else Float.min (up -. mu) (mu -. down) in
      let margin =
        1e-9 *. (1.0 +. Float.abs up +. Float.abs down +. Float.abs mu)
      in
      let m = m -. margin in
      if m > 0.0 then (v0, exp (-.(m /. sigma *. (m /. sigma)) /. 2.0)) else (v0, never)
    end
  in
  { tk_sigma = sigma; tk_res = res; tk_raw = raw; tk_value = value; tk_bound = bound }

let tick_value tk = tk.tk_value
let tick_bound tk = tk.tk_bound

(* [lognormal_tick t ~sigma ~res raw] for the [tick]'s parameters: the
   same two uniforms are drawn (none when noiseless), and [log], [cos]
   and [exp] run only when [u1] is at or below the bound. *)
let sample_tick t tk =
  if tk.tk_sigma = 0.0 || tk.tk_raw = 0 then tk.tk_value
  else begin
    let r1 = non_zero_top53 t in
    let r2 = top53 t in
    let u1 = unit_of_top53 r1 in
    if u1 > tk.tk_bound then tk.tk_value
    else noisy_tick ~sigma:tk.tk_sigma ~res:tk.tk_res tk.tk_raw u1 (unit_of_top53 r2)
  end

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choose: empty array";
  arr.(int t (Array.length arr))
