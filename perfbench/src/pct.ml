(* Order statistics.  A percentile is only reported when at least
   [min_beyond] samples lie beyond it, so a "p99" never rests on a
   handful of reads. *)

let min_beyond = 10

(* Nearest-rank percentile of [xs] at [q] in [0, 1]; [None] when fewer
   than [min_beyond] samples lie above it. *)
let percentile xs q =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then None
  else begin
    Array.sort compare a;
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
    if n - rank < min_beyond then None else Some a.(rank - 1)
  end

(* Plain median, for wall-clock rounds and set-ups (no tail claim). *)
let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
