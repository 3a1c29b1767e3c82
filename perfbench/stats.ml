(* Order statistics for the benchmark's reports. *)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* Linear interpolation between the two closest ranks (Hyndman-Fan
   type 7, numpy's default): the q-quantile sits at position
   q * (n - 1) of the sorted sample. *)
let quantile_sorted s q =
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.quantile: empty sample";
  if q < 0. || q > 1. then invalid_arg "Stats.quantile: q outside [0, 1]";
  let pos = q *. float_of_int (n - 1) in
  let i = int_of_float pos in
  if i >= n - 1 then s.(n - 1)
  else
    let frac = pos -. float_of_int i in
    s.(i) +. (frac *. (s.(i + 1) -. s.(i)))

let quantile a q = quantile_sorted (sorted a) q
let median a = quantile a 0.5

let mean a =
  if Array.length a = 0 then invalid_arg "Stats.mean: empty sample";
  Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

(* Samples strictly above the q-quantile of a sample of size [n]: the
   support a reported percentile rests on. *)
let beyond ~n q = n - 1 - int_of_float (q *. float_of_int (n - 1))

(* A growable float sample, so load-generator loops append without
   knowing their request count up front. *)
module Buf = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 4096 0.; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let d = Array.make (2 * t.len) 0. in
      Array.blit t.data 0 d 0 t.len;
      t.data <- d
    end;
    Array.unsafe_set t.data t.len x;
    t.len <- t.len + 1

  let length t = t.len
  let to_array t = Array.sub t.data 0 t.len
end
