let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest rank: the smallest sample with at least [pct]% of the samples at
   or below it. Integer arithmetic keeps rank exact (no 0.9 *. 100. drift). *)
let rank ~pct n = max 1 ((pct * n + 99) / 100)

let min_beyond = 10

let percentile ~pct xs =
  let a = sorted xs in
  let n = Array.length a in
  if pct < 1 || pct > 100 then invalid_arg "Stats.percentile: pct out of 1..100"
  else if n = 0 then Error "no samples"
  else
    let r = rank ~pct n in
    let beyond = n - r in
    if pct < 100 && beyond < min_beyond then
      Error
        (Printf.sprintf "p%d of %d samples has only %d beyond it (need %d)" pct
           n beyond min_beyond)
    else Ok a.(r - 1)

let samples_for ~pct = (100 * min_beyond + (100 - pct) - 1) / (100 - pct)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Python's statistics.quantiles(data, n=4), default 'exclusive' method, so
   a spread computed here matches one computed from the same values there. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least 2 samples";
  let n = 4 and m = ld + 1 in
  let q i =
    let j = i * m / n in
    let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
    let delta = (i * m) - (j * n) in
    ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
    /. float_of_int n
  in
  (q 1, q 2, q 3)

