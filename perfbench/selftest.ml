(* Self-test of the benchmark harness: percentile arithmetic, span self
   time with nested children, response framing, and corpus determinism.
   Runs under `dune runtest` and exits non-zero on the first failure. *)

open Perfbench

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let close_to ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let test_percentiles () =
  check "median of 4" (close_to (Stats.median [| 4.; 1.; 3.; 2. |]) 2.5);
  check "q25 interpolates" (close_to (Stats.quantile [| 1.; 2.; 3.; 4. |] 0.25) 1.75);
  check "q99 of 1..100" (close_to (Stats.quantile (Array.init 100 (fun i -> float_of_int (i + 1))) 0.99) 99.01);
  check "q0 and q1 are the extremes"
    (Stats.quantile [| 5.; -1.; 3. |] 0. = -1. && Stats.quantile [| 5.; -1.; 3. |] 1. = 5.);
  check "single sample" (Stats.quantile [| 7. |] 0.99 = 7.);
  check "input left unsorted"
    (let a = [| 3.; 1.; 2. |] in
     ignore (Stats.median a);
     a = [| 3.; 1.; 2. |]);
  check "empty sample raises"
    (match Stats.median [||] with _ -> false | exception Invalid_argument _ -> true);
  check "support beyond p99 of 1000" (Stats.beyond ~n:1000 0.99 = 10);
  check "support beyond p50 of 5" (Stats.beyond ~n:5 0.5 = 2);
  let b = Stats.Buf.create () in
  for i = 1 to 10_000 do
    Stats.Buf.add b (float_of_int i)
  done;
  check "buffer grows and keeps order"
    (Stats.Buf.length b = 10_000 && (Stats.Buf.to_array b).(9_999) = 10_000.)

let test_spans () =
  let sp = Spans.create () in
  let add name parent start stop = Spans.add sp ~name ~parent ~start ~stop in
  let root = add "request" Spans.no_parent 0 100 in
  let a = add "a" root 10 30 in
  let b = add "b" root 40 70 in
  let g = add "g" b 45 50 in
  let c = add "c" root 60 80 (* overlaps b: counted once *) in
  let d = add "d" root 90 120 (* runs past its parent: clipped *) in
  let lone = add "lone" Spans.no_parent 200 260 in
  let self = Spans.self_times sp in
  (* Children cover [10,30] u [40,80] u [90,100] = 70 of the root's 100. *)
  check "root self time" (self.(root) = 30);
  check "leaf self time" (self.(a) = 20 && self.(g) = 5 && self.(c) = 20 && self.(d) = 30);
  check "nested child self time" (self.(b) = 25);
  check "span without children" (self.(lone) = 60);
  (* Measured spans nest and count minor words. *)
  let sp = Spans.create () in
  let outer = Spans.enter sp ~name:"outer" ~parent:Spans.no_parent in
  let inner = Spans.enter sp ~name:"inner" ~parent:outer in
  ignore (Sys.opaque_identity (Array.make 100 0.));
  Spans.leave sp inner;
  Spans.leave sp outer;
  check "measured spans are ordered"
    (Spans.duration sp outer >= Spans.duration sp inner && Spans.duration sp inner >= 0);
  check "minor words are counted" (Spans.words sp inner >= 101.);
  let many = Spans.create () in
  for i = 0 to 5000 do
    ignore (Spans.add many ~name:"x" ~parent:Spans.no_parent ~start:i ~stop:(i + 1))
  done;
  check "recorder grows" (Spans.length many = 5001 && Spans.duration many 5000 = 1)

(* Responses split across reads, in both codecs. *)
let test_framing () =
  let parse codec chunks =
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let c = { Loadgen.fd = a; codec; buf = Bytes.create 8; lo = 0; hi = 0; scan = 0 } in
    let writer =
      Domain.spawn (fun () ->
          List.iter (fun s -> Loadgen.send { c with fd = b } s) chunks;
          Unix.close b)
    in
    let rec read acc =
      match Loadgen.take c (Loadgen.next c) with
      | s -> read (s :: acc)
      | exception End_of_file -> List.rev acc
    in
    let got = read [] in
    Domain.join writer;
    Unix.close a;
    got
  in
  let lines = [ "{\"a\":1}"; ""; String.make 40 'x'; "{\"b\":[1,2]}" ] in
  let wire = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
  let pieces s k = List.init ((String.length s + k - 1) / k) (fun i -> String.sub s (i * k) (min k (String.length s - (i * k)))) in
  check "json lines across reads" (parse Corpus.Json (pieces wire 3) = lines);
  let bodies = [ "one"; ""; String.make 100 'y' ] in
  let frames = String.concat "" (List.map Serve.Binary.frame_response bodies) in
  check "binary frames across reads" (parse Corpus.Binary (pieces frames 5) = bodies)

let wires items = Array.map (fun (it : Corpus.item) -> it.wire) items

let test_corpus () =
  let h1 = wires (Corpus.hot_stream ~seed:1 ~conn:0 ~len:4096) in
  check "hot: same seed, same bytes" (h1 = wires (Corpus.hot_stream ~seed:1 ~conn:0 ~len:4096));
  check "hot: other seed, other bytes" (h1 <> wires (Corpus.hot_stream ~seed:2 ~conn:0 ~len:4096));
  check "hot: connections differ" (h1 <> wires (Corpus.hot_stream ~seed:1 ~conn:1 ~len:4096));
  check "warm pass is seeded"
    (wires (Corpus.warm_pass ~seed:1 ~conn:0) = wires (Corpus.warm_pass ~seed:1 ~conn:0)
    && wires (Corpus.warm_pass ~seed:1 ~conn:0) <> wires (Corpus.warm_pass ~seed:2 ~conn:0));
  let live seed conn = Array.init 400 (fun k -> (Corpus.live_request ~seed ~conn k).wire) in
  check "live: same seed, same bytes" (live 1 0 = live 1 0);
  check "live: other seed, other bytes" (live 1 0 <> live 2 0);
  let t1 = wires (Corpus.twin_stream ~seed:1 ~conn:1 ~len:1024) in
  check "twin: seeded" (t1 = wires (Corpus.twin_stream ~seed:1 ~conn:1 ~len:1024)
                         && t1 <> wires (Corpus.twin_stream ~seed:3 ~conn:1 ~len:1024));
  (* The named properties the workloads were chosen for. *)
  let hot = Corpus.hot_stream ~seed:5 ~conn:0 ~len:8192 in
  let p = Corpus.properties (Array.to_seq hot) in
  check "hot: about 90% hot" (p.hot_share > 0.87 && p.hot_share < 0.93);
  check "hot: at most 64 hot questions"
    (let keys = Hashtbl.create 64 in
     Array.iter (fun (it : Corpus.item) -> if it.hot then Hashtbl.replace keys (Serve.Request.key it.req) ()) hot;
     Hashtbl.length keys <= Corpus.hot_count);
  check "hot: every cached kind appears"
    (List.for_all (fun k -> List.mem_assoc k p.kind_mix)
       [ "cutoffs"; "success_rate"; "success_rate_q"; "sweep"; "quote"; "route" ]);
  check "kind mix sums to one"
    (close_to ~eps:1e-9 (List.fold_left (fun a (_, s) -> a +. s) 0. p.kind_mix) 1.);
  let items = Array.init 2000 (fun i -> Corpus.live_request ~seed:9 ~conn:(i mod 2) (i / 2)) in
  let keys = Hashtbl.create 4096 in
  Array.iter (fun (it : Corpus.item) -> Hashtbl.replace keys (Serve.Request.key it.req) ()) items;
  check "live: no request repeats another" (Hashtbl.length keys = Array.length items);
  let lp = Corpus.properties (Array.to_seq items) in
  check "live: params repeat from 16 calibrations" (lp.params_repeat_share > 0.9);
  check "live: no route requests" (not (List.mem_assoc "route" lp.kind_mix));
  check "requests decode back"
    (Array.for_all
       (fun (it : Corpus.item) ->
         match it.wire.[0] with
         | '{' -> Serve.Request.decode (String.sub it.wire 0 (String.length it.wire - 1)) = Ok it.req
         | _ -> true)
       (Array.append hot items))

let () =
  test_percentiles ();
  test_spans ();
  test_framing ();
  test_corpus ();
  if !failures > 0 then begin
    Printf.printf "%d harness self-test failures\n" !failures;
    exit 1
  end
  else print_endline "perfbench self-test: ok"
