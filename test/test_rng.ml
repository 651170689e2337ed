(* Determinism and distributional sanity of the PRNG layer. *)

open Gray_util

let test_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_seeds_differ () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "different streams" true (!same < 4)

let test_int_bounds () =
  let rng = Rng.create ~seed:7 in
  for _ = 1 to 10_000 do
    let x = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 17)
  done

let test_int_in_bounds () =
  let rng = Rng.create ~seed:7 in
  for _ = 1 to 1_000 do
    let x = Rng.int_in rng ~min:(-5) ~max:5 in
    Alcotest.(check bool) "in range" true (x >= -5 && x <= 5)
  done

let test_int_rejects_bad_bound () =
  let rng = Rng.create ~seed:7 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_float_bounds () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 10_000 do
    let x = Rng.float rng 2.5 in
    Alcotest.(check bool) "in range" true (x >= 0.0 && x < 2.5)
  done

let test_uniformity () =
  (* chi-square-ish check: 10 buckets over 100k draws stay within 5%. *)
  let rng = Rng.create ~seed:11 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let b = Rng.int rng 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter
    (fun c ->
      let frac = float_of_int c /. float_of_int n in
      Alcotest.(check bool) "bucket near 10%" true (frac > 0.09 && frac < 0.11))
    buckets

let test_gaussian_moments () =
  let rng = Rng.create ~seed:13 in
  let acc = Stats.empty () in
  for _ = 1 to 50_000 do
    Stats.add acc (Rng.gaussian rng ~mu:3.0 ~sigma:2.0)
  done;
  Alcotest.(check bool) "mean near 3" true (Float.abs (Stats.mean acc -. 3.0) < 0.05);
  Alcotest.(check bool) "stddev near 2" true (Float.abs (Stats.stddev acc -. 2.0) < 0.05)

let test_split_independent () =
  let parent = Rng.create ~seed:99 in
  let child = Rng.split parent in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 parent = Rng.bits64 child then incr same
  done;
  Alcotest.(check bool) "split streams differ" true (!same < 4)

let test_copy_replays () =
  let a = Rng.create ~seed:5 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy replays" (Rng.bits64 a) (Rng.bits64 b)

let test_shuffle_permutes () =
  let rng = Rng.create ~seed:21 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same elements" (Array.init 50 (fun i -> i)) sorted;
  Alcotest.(check bool) "actually shuffled" true (arr <> Array.init 50 (fun i -> i))

let test_choose () =
  let rng = Rng.create ~seed:4 in
  let arr = [| "a"; "b"; "c" |] in
  for _ = 1 to 100 do
    let x = Rng.choose rng arr in
    Alcotest.(check bool) "member" true (Array.mem x arr)
  done

(* ---- the tick sampler ---- *)

(* The kernel's touch sample, literally: [max res (quantise res (noised
   raw))] over the lognormal factor. *)
let quantise res ns = if res <= 1 then ns else ns / res * res

let noised rng ~sigma ns =
  if sigma = 0.0 || ns = 0 then ns
  else max 0 (int_of_float (float_of_int ns *. Dist.lognormal_factor rng ~sigma))

let reference rng ~sigma ~res raw = max res (quantise res (noised rng ~sigma raw))

let sigmas = [| 0.0; 0.05; 0.5; 2.0 |]
let resolutions = [| 1; 100; 1000 |]

let raws res =
  [| 0; 1; res - 1; res; res + (res / 2); (2 * res) - 1; 2 * res; 9000 |]

let tick_case_gen =
  QCheck2.Gen.(
    map
      (fun (((s, r), w), (seed, n)) -> (sigmas.(s), resolutions.(r), w, seed, n))
      (pair
         (pair (pair (int_bound 3) (int_bound 2)) (int_bound 7))
         (pair (int_bound 100_000) (int_range 1 400))))

let print_tick_case (sigma, res, w, seed, n) =
  Printf.sprintf "sigma=%g res=%d raw=%d seed=%d n=%d" sigma res (raws res).(w) seed n

(* Every sample equals the reference's, and both generators end in the
   same state: the shortcut draws the same two uniforms. *)
let prop_tick_sampler =
  QCheck2.Test.make ~name:"tick sampler = max res (quantise res (noised raw))" ~count:500
    ~print:print_tick_case tick_case_gen (fun (sigma, res, w, seed, n) ->
      let raw = (raws res).(w) in
      let tk = Rng.tick ~sigma ~res raw in
      let a = Rng.create ~seed and b = Rng.create ~seed in
      let same = ref true in
      for _ = 1 to n do
        let x = Rng.sample_tick a tk and y = reference b ~sigma ~res raw in
        if x <> y then same := false
      done;
      !same
      && Rng.bits64 a = Rng.bits64 b
      && Rng.lognormal_tick a ~sigma ~res raw = reference b ~sigma ~res raw
      && Rng.bits64 a = Rng.bits64 b)

(* At the smallest first uniform the shortcut takes, the extreme factors
   (cos = 1 and cos = -1) must still land well inside the tick's cell —
   by a relative 1e-10, far above the formula's rounding error.  A bound
   taken without a margin lands on the cell edge and fails this. *)
let test_tick_bound_margin () =
  Array.iter
    (fun sigma ->
      Array.iter
        (fun res ->
          Array.iter
            (fun raw ->
              let tk = Rng.tick ~sigma ~res raw in
              let b = Rng.tick_bound tk and v = Rng.tick_value tk in
              let name = Printf.sprintf "sigma=%g res=%d raw=%d" sigma res raw in
              if sigma = 0.0 || raw = 0 then
                Alcotest.(check int) (name ^ ": noiseless tick") (reference (Rng.create ~seed:1) ~sigma ~res raw) v
              else if b < 1.0 then begin
                let q = if res <= 1 then 1 else res in
                let lo, hi = if v = res then (0, 2 * q) else (v, v + q) in
                let u1 = Float.succ b in
                let mu = -.(sigma *. sigma) /. 2.0 in
                let r = sqrt (-2.0 *. log u1) in
                let rawf = float_of_int raw in
                let x_hi = rawf *. exp (mu +. (Float.abs sigma *. r)) in
                let x_lo = rawf *. exp (mu -. (Float.abs sigma *. r)) in
                Alcotest.(check bool)
                  (name ^ ": top of the range below the cell's end")
                  true
                  (x_hi < float_of_int hi *. (1.0 -. 1e-10));
                Alcotest.(check bool)
                  (name ^ ": bottom of the range above the cell's start")
                  true
                  (lo = 0 || x_lo > float_of_int lo *. (1.0 +. 1e-10))
              end)
            (raws res))
        resolutions)
    sigmas

(* The paper's case — a 150 ns touch through a 100 ns timer at sigma
   0.05 — leaves the 100 ns tick only past a factor of 4/3, 5.8 sigma
   out: the shortcut misses about one first uniform in 18 million. *)
let test_tick_shortcut_common () =
  let tk = Rng.tick ~sigma:0.05 ~res:100 150 in
  Alcotest.(check int) "median tick" 100 (Rng.tick_value tk);
  Alcotest.(check bool) "bound below 1e-7" true (Rng.tick_bound tk < 1e-7)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seeds differ" `Quick test_seeds_differ;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int_in bounds" `Quick test_int_in_bounds;
    Alcotest.test_case "int rejects bad bound" `Quick test_int_rejects_bad_bound;
    Alcotest.test_case "float bounds" `Quick test_float_bounds;
    Alcotest.test_case "uniformity" `Quick test_uniformity;
    Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
    Alcotest.test_case "split independence" `Quick test_split_independent;
    Alcotest.test_case "copy replays" `Quick test_copy_replays;
    Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
    Alcotest.test_case "choose membership" `Quick test_choose;
    QCheck_alcotest.to_alcotest prop_tick_sampler;
    Alcotest.test_case "tick bound keeps a margin" `Quick test_tick_bound_margin;
    Alcotest.test_case "tick shortcut is the common case" `Quick test_tick_shortcut_common;
  ]
