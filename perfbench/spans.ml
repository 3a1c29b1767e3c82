(* In-memory span recorder.  A span is a named interval with a parent;
   spans are appended into flat arrays (no allocation per span once the
   arrays have grown) and written out when the run ends.  Minor-heap
   words allocated on the recording domain between [enter] and [leave]
   are kept per span. *)

type t = {
  mutable n : int;
  mutable names : string array;
  mutable parents : int array;
  mutable starts : int array;
  mutable stops : int array;
  mutable words : float array;
}

let no_parent = -1

let create () =
  let cap = 1024 in
  {
    n = 0;
    names = Array.make cap "";
    parents = Array.make cap no_parent;
    starts = Array.make cap 0;
    stops = Array.make cap 0;
    words = Array.make cap 0.;
  }

let length t = t.n

let grow t =
  let cap = 2 * Array.length t.names in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.names <- extend t.names "";
  t.parents <- extend t.parents no_parent;
  t.starts <- extend t.starts 0;
  t.stops <- extend t.stops 0;
  t.words <- extend t.words 0.

let push t ~name ~parent ~start ~stop ~words =
  if t.n = Array.length t.names then grow t;
  let i = t.n in
  t.names.(i) <- name;
  t.parents.(i) <- parent;
  t.starts.(i) <- start;
  t.stops.(i) <- stop;
  t.words.(i) <- words;
  t.n <- i + 1;
  i

(* An externally timed interval (the load generator stamps its own). *)
let add t ~name ~parent ~start ~stop = push t ~name ~parent ~start ~stop ~words:0.

(* [enter] opens a span stamped now; [leave] closes it.  The word count
   is the minor-heap delta between the two calls. *)
let enter t ~name ~parent =
  let w = Gc.minor_words () in
  push t ~name ~parent ~start:(Obs.Monotonic.now_int_ns ()) ~stop:0 ~words:w

let leave t i =
  t.stops.(i) <- Obs.Monotonic.now_int_ns ();
  t.words.(i) <- Gc.minor_words () -. t.words.(i)

let rename t i name = t.names.(i) <- name

let name t i = t.names.(i)
let parent t i = t.parents.(i)
let duration t i = t.stops.(i) - t.starts.(i)
let words t i = t.words.(i)

(* Self time: the span's duration minus the part of its interval that
   its direct children cover (children are merged first, so overlapping
   children are not subtracted twice, and clipped to the parent). *)
let self_times t =
  let children = Array.make t.n [] in
  for i = t.n - 1 downto 0 do
    let p = t.parents.(i) in
    if p >= 0 && p < t.n then children.(p) <- i :: children.(p)
  done;
  Array.init t.n (fun i ->
      let lo = t.starts.(i) and hi = t.stops.(i) in
      let ivs =
        List.map
          (fun c -> (max lo t.starts.(c), min hi t.stops.(c)))
          children.(i)
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = max a reach in
            if b > a then (acc + (b - a), b) else (acc, reach))
          (0, lo) ivs
      in
      hi - lo - covered)

(* Every recorder into one file; ids are offset so they stay unique.
   A recorder longer than [max_per_recorder] is cut at that many spans
   (the header counts what was left out). *)
let write_all ~max_per_recorder oc recorders =
  let origin =
    List.fold_left
      (fun acc t -> if t.n = 0 then acc else Array.fold_left min acc (Array.sub t.starts 0 t.n))
      max_int recorders
  in
  let kept t = min t.n max_per_recorder in
  let dropped = List.fold_left (fun a t -> a + t.n - kept t) 0 recorders in
  Printf.fprintf oc
    "{\"record\":\"perfbench/trace\",\"columns\":[\"id\",\"name\",\"parent\",\"start_ns\",\"stop_ns\",\"minor_words\"],\"spans_not_written\":%d}\n"
    dropped;
  ignore
    (List.fold_left
       (fun offset t ->
         for i = 0 to kept t - 1 do
           let p = t.parents.(i) in
           Printf.fprintf oc "[%d,\"%s\",%d,%d,%d,%.0f]\n" (offset + i) t.names.(i)
             (if p < 0 || p >= kept t then -1 else offset + p)
             (t.starts.(i) - origin) (t.stops.(i) - origin) t.words.(i)
         done;
         offset + kept t)
       0 recorders)

let set_stop t i stop = t.stops.(i) <- stop
