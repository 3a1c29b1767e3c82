(* The serve workloads: a fresh [swap_cli serve --socket PATH] at its
   defaults, driven by two load-generator connections (one JSON, one
   htlc-serve/b1) and read from outside through /proc and its [health]
   reply. *)

let now = Obs.Monotonic.now_int_ns
let secs t0 t1 = float_of_int (t1 - t0) *. 1e-9

type env = {
  exe : string;
  workdir : string;
  seed : int;
  idle : unit -> unit;
      (** Called where no server runs and nothing is timed: between
          set-ups, and in serve-live between the load and its check. *)
}

(* --- the server process ------------------------------------------------ *)

type server = { pid : int; socket : string; setup_s : float }

let health_wire =
  Corpus.encode Corpus.Json { Serve.Request.id = Some "perfbench-health"; body = Serve.Request.Health }

(* Spawn, then poll the socket until a request is answered: the set-up
   time covers the quote-table warm build and the route universe. *)
let start env ~index =
  let socket = Filename.concat env.workdir (Printf.sprintf "s%d.sock" index) in
  (try Sys.remove socket with Sys_error _ -> ());
  let log = Filename.concat env.workdir (Printf.sprintf "server%d.log" index) in
  let t0 = now () in
  let pid = Proc.spawn ~stdout:log ~stderr:log env.exe [ "serve"; "--socket"; socket ] in
  let deadline = t0 + 120_000_000_000 in
  let rec attempt () =
    if Proc.exited pid then failwith ("the server exited during set-up; see " ^ log);
    match Loadgen.connect ~socket Corpus.Json with
    | c -> c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      if now () > deadline then failwith "the server did not answer within 120 s";
      Unix.sleepf 0.002;
      attempt ()
  in
  let c = attempt () in
  let answer = Loadgen.call c health_wire in
  let t1 = now () in
  Loadgen.close c;
  if not (Reference.is_ok answer) then failwith ("health request failed: " ^ answer);
  { pid; socket; setup_s = secs t0 t1 }

(* [count] fresh servers one after another; all but the last are
   stopped.  Returns every set-up time and the live server. *)
let start_several env ~count =
  let rec go i acc =
    let s = start env ~index:i in
    if i + 1 = count then (List.rev (s.setup_s :: acc), s)
    else begin
      Proc.stop s.pid;
      env.idle ();
      go (i + 1) (s.setup_s :: acc)
    end
  in
  go 0 []

type health = { hits : int; misses : int; evictions : int }

let health c =
  let module J = Obs.Json_parse in
  let doc = J.parse (Loadgen.call c health_wire) in
  let cache = J.member "health" (J.member "health" doc "result") "cache" in
  let int k = int_of_float (J.as_num k (J.member "cache" cache k)) in
  { hits = int "hits"; misses = int "misses"; evictions = int "evictions" }

(* --- one timed load ----------------------------------------------------- *)

type load = {
  results : Loadgen.result list;
  wall_s : float;
  server_cpu_s : float;
  loadgen_cpu_s : float;
}

let measure server f =
  let cpu0 = Proc.cpu_ticks server.pid and lg0 = Proc.self_cpu_s () in
  let results = f () in
  let cpu1 = Proc.cpu_ticks server.pid and lg1 = Proc.self_cpu_s () in
  let first = List.fold_left (fun a (r : Loadgen.result) -> min a r.first_ns) max_int results in
  let last = List.fold_left (fun a (r : Loadgen.result) -> max a r.last_ns) min_int results in
  {
    results;
    wall_s = secs first last;
    server_cpu_s = float_of_int (cpu1 - cpu0) /. Proc.ticks_per_s;
    loadgen_cpu_s = lg1 -. lg0;
  }

let sum f l = List.fold_left (fun a x -> a + f x) 0 l
let answered l = sum (fun (r : Loadgen.result) -> r.answered) l.results
let sent l = sum (fun (r : Loadgen.result) -> r.sent) l.results

let latencies l =
  Array.concat (List.map (fun (r : Loadgen.result) -> r.latencies_ms) l.results)

let errors l = List.filter_map (fun (r : Loadgen.result) -> r.error) l.results

let combine loads =
  let total f = List.fold_left (fun a l -> a +. f l) 0. loads in
  {
    results = List.concat_map (fun l -> l.results) loads;
    wall_s = total (fun l -> l.wall_s);
    server_cpu_s = total (fun l -> l.server_cpu_s);
    loadgen_cpu_s = total (fun l -> l.loadgen_cpu_s);
  }

(* A traced run alternates untraced and traced slices of the load, so
   that a slow stretch of the host does not fall on one side only.
   [run ~seconds ~traced i] runs slice [i]; an untraced run is one
   untraced slice. *)
type slice = { index : int; traced : bool; load : load }

let trace_slices = 6

let slices ~seconds ~traced run =
  if not traced then [ { index = 0; traced = false; load = run ~seconds ~traced:false 0 } ]
  else
    List.init trace_slices (fun index ->
        let traced = index mod 2 = 1 in
        { index; traced; load = run ~seconds:(seconds /. float_of_int trace_slices) ~traced index })

let side ~traced sl =
  combine (List.filter_map (fun s -> if s.traced = traced then Some s.load else None) sl)

(* Requests written by each connection of the untraced slices. *)
let sent_untraced sl item =
  List.to_seq sl
  |> Seq.filter (fun s -> not s.traced)
  |> Seq.flat_map (fun s ->
         Seq.concat
           (List.to_seq
              (List.mapi (fun conn (r : Loadgen.result) -> Seq.init r.sent (item s conn)) s.load.results)))

(* --- what a serve run reports ------------------------------------------- *)

type report = {
  attempted : int;
  failed : int;
  failures : string list;  (** One line per kind of failure seen. *)
  setup_s : float list;
  throughput_rps : float;
  latency_ms : float array;
  peak_rss_mib : float;
  cache : health;  (** Timed-window delta. *)
  server_cpu_us_per_req : float;
  loadgen_cpu_us_per_req : float;
  properties : Corpus.properties;
  traced_throughput_rps : float option;
  rtt_us : float array;
  replay : Replay.entry array;  (** The requests the traced replay uses. *)
  spans : Spans.t list;
}

let delta a b = { hits = b.hits - a.hits; misses = b.misses - a.misses; evictions = b.evictions - a.evictions }
let plus a b = { hits = a.hits + b.hits; misses = a.misses + b.misses; evictions = a.evictions + b.evictions }
let no_traffic = { hits = 0; misses = 0; evictions = 0 }

(* Run [f], adding the cache traffic it causes to [probes] so that it
   can be left out of the run's counters. *)
let off_the_books hc probes f =
  let before = health hc in
  let r = f () in
  probes := plus !probes (delta before (health hc));
  r

type tally = { mutable failed : int; mutable lines : string list }

let count t n what =
  if n > 0 then begin
    t.failed <- t.failed + n;
    t.lines <- Printf.sprintf "%d %s" n what :: t.lines
  end

(* Unloaded round trips: one request per write, [n] times. *)
let round_trips ~socket ~(item : Corpus.item) ~expected ~n =
  let c = Loadgen.connect ~socket Corpus.Json in
  let bad = ref 0 in
  let rtt =
    Array.init n (fun _ ->
        let t0 = now () in
        Loadgen.send c item.wire;
        let r = Loadgen.next c in
        let t1 = now () in
        if not (Loadgen.equal_at c r expected) then incr bad;
        float_of_int (t1 - t0) *. 1e-3)
  in
  Loadgen.close c;
  (rtt, !bad)

let window = 64
let cycle_len = 8192

(* Burst-mode workloads (serve-hot, and mc-batch's served twin): each
   connection cycles through its own seeded stream, [window] requests
   per write; every expected answer is known before the load starts. *)
let run_burst env ~streams ~warm ~seconds ~setups ~traced =
  let tally = { failed = 0; lines = [] } in
  let fail = count tally in
  let all = Array.concat (Array.to_list warm @ Array.to_list streams) in
  let refs = Reference.compute ~exe:env.exe ~workdir:env.workdir (Array.map (fun (it : Corpus.item) -> it.req) all) in
  fail (Array.fold_left (fun a r -> if Reference.is_ok r then a else a + 1) 0 refs) "reference answers not ok";
  let split =
    let pos = ref 0 in
    fun (a : Corpus.item array array) ->
      Array.map
        (fun items ->
          let r = Array.sub refs !pos (Array.length items) in
          pos := !pos + Array.length items;
          r)
        a
  in
  let warm_expected = split warm in
  let expected = split streams in
  let windows =
    Array.map
      (fun (items : Corpus.item array) ->
        Array.init (Array.length items / window) (fun w ->
            String.concat "" (List.init window (fun i -> items.((w * window) + i).wire))))
      streams
  in
  let setup_s, server = start_several env ~count:setups in
  Fun.protect ~finally:(fun () -> Proc.stop server.pid) @@ fun () ->
  let hc = Loadgen.connect ~socket:server.socket Corpus.Json in
  let h0 = health hc and probes = ref no_traffic in
  Array.iteri
    (fun conn items ->
      let c = Loadgen.connect ~socket:server.socket Corpus.codecs.(conn) in
      Array.iteri
        (fun i (it : Corpus.item) ->
          Loadgen.send c it.wire;
          if not (Loadgen.equal_at c (Loadgen.next c) warm_expected.(conn).(i)) then
            fail 1 "warm-pass mismatches")
        items;
      Loadgen.close c)
    warm;
  let load ?trace_of ~seconds () =
    let deadline_ns = now () + int_of_float (seconds *. 1e9) in
    measure server (fun () ->
        Loadgen.run_bursts ~socket:server.socket ~window ~deadline_ns
          (Array.init 2 (fun conn ->
               {
                 Loadgen.codec = Corpus.codecs.(conn);
                 windows = windows.(conn);
                 expected = expected.(conn);
                 trace = Option.map (fun f -> f conn) trace_of;
               })))
  in
  let spans = Array.init 2 (fun _ -> Spans.create ()) in
  let rtt =
    if not traced then [||]
    else begin
      let rtt, bad =
        off_the_books hc probes (fun () ->
            round_trips ~socket:server.socket ~item:warm.(0).(0) ~expected:warm_expected.(0).(0) ~n:2000)
      in
      fail bad "mismatched round trips";
      rtt
    end
  in
  let sl =
    slices ~seconds ~traced (fun ~seconds ~traced _ ->
        if traced then load ~trace_of:(fun conn -> spans.(conn)) ~seconds () else load ~seconds ())
  in
  let main = side ~traced:false sl in
  let mismatched = sum (fun (r : Loadgen.result) -> r.mismatched) main.results in
  fail mismatched "mismatched responses";
  fail (sent main - answered main) "missing responses";
  List.iter (fun e -> fail 1 ("connection error: " ^ e)) (errors main);
  let correct = answered main - mismatched in
  let traced_throughput =
    if not traced then None
    else begin
      let tl = side ~traced:true sl in
      let bad = sum (fun (r : Loadgen.result) -> r.mismatched) tl.results in
      fail bad "mismatched responses (traced load)";
      fail (sent tl - answered tl) "missing responses (traced load)";
      List.iter (fun e -> fail 1 ("connection error (traced load): " ^ e)) (errors tl);
      Some (float_of_int (answered tl - bad) /. tl.wall_s)
    end
  in
  (* Cache counters at the end of the run, round trips left out. *)
  let h1 = delta !probes (health hc) in
  Loadgen.close hc;
  let peak = float_of_int (Proc.vm_hwm_kib server.pid) /. 1024. in
  let n = float_of_int (max 1 (answered main)) in
  let sent_items =
    sent_untraced sl (fun _ conn j -> streams.(conn).(j mod Array.length streams.(conn)))
  in
  (* For the traced replay: the warm pass, then one cycle of each
     stream, interleaved by position. *)
  let replay =
    if not traced then [||]
    else
      let entries conn items expected =
        Array.mapi (fun i it -> { Replay.item = it; codec = Corpus.codecs.(conn); expected = expected.(i) }) items
      in
      let cycle =
        Array.init (2 * cycle_len) (fun i ->
            let conn = i mod 2 and j = i / 2 in
            { Replay.item = streams.(conn).(j); codec = Corpus.codecs.(conn); expected = expected.(conn).(j) })
      in
      Array.concat (entries 0 warm.(0) warm_expected.(0) :: entries 1 warm.(1) warm_expected.(1) :: [ cycle ])
  in
  {
    attempted = sent main + Array.fold_left (fun a w -> a + Array.length w) 0 warm;
    failed = tally.failed;
    failures = List.rev tally.lines;
    setup_s;
    throughput_rps = float_of_int correct /. main.wall_s;
    latency_ms = latencies main;
    peak_rss_mib = peak;
    cache = delta h0 h1;
    server_cpu_us_per_req = main.server_cpu_s *. 1e6 /. n;
    loadgen_cpu_us_per_req = main.loadgen_cpu_s *. 1e6 /. n;
    properties = Corpus.properties sent_items;
    traced_throughput_rps = traced_throughput;
    rtt_us = rtt;
    replay;
    spans = Array.to_list spans;
  }

let hot env ~seconds ~setups ~traced =
  let seed = env.seed in
  run_burst env ~seconds ~setups ~traced
    ~streams:(Array.init 2 (fun conn -> Corpus.hot_stream ~seed ~conn ~len:cycle_len))
    ~warm:(Array.init 2 (fun conn -> Corpus.warm_pass ~seed ~conn))

let twin env ~seconds ~setups ~traced =
  let seed = env.seed in
  run_burst env ~seconds ~setups ~traced
    ~streams:(Array.init 2 (fun conn -> Corpus.twin_stream ~seed ~conn ~len:cycle_len))
    ~warm:(Array.init 2 (fun conn -> Corpus.twin_warm ~conn))

(* --- serve-live ------------------------------------------------------- *)

let outstanding = 4
let live_warm = 4
let slice_stride = 100_000

type answer = { conn : int; item : Corpus.item; answer : string; timed : bool }

(* Sliding-mode workload: every request is new to the cache, so answers
   are kept and checked against the reference after the load. *)
let live env ~seconds ~setups ~traced ~replay_cap =
  let seed = env.seed in
  let tally = { failed = 0; lines = [] } in
  let fail = count tally in
  let gen conn k = Corpus.live_request ~seed ~conn k in
  let warm = Array.init 2 (fun conn -> Array.init live_warm (fun i -> gen conn (1_000_000 + i))) in
  let setup_s, server = start_several env ~count:setups in
  let outcome =
    Fun.protect ~finally:(fun () -> Proc.stop server.pid) @@ fun () ->
    let hc = Loadgen.connect ~socket:server.socket Corpus.Json in
    let h0 = health hc and probes = ref no_traffic in
    let warm_answers =
      Array.mapi
        (fun conn items ->
          let c = Loadgen.connect ~socket:server.socket Corpus.codecs.(conn) in
          let a = Array.map (fun (it : Corpus.item) -> Loadgen.call c it.wire) items in
          Loadgen.close c;
          a)
        warm
    in
    let load ?trace_of ~offset ~seconds () =
      let deadline_ns = now () + int_of_float (seconds *. 1e9) in
      measure server (fun () ->
          Loadgen.parallel 2 (fun conn ->
              Loadgen.run_sliding ?trace:(Option.map (fun f -> f conn) trace_of)
                ~socket:server.socket ~codec:Corpus.codecs.(conn)
                ~gen:(fun k -> gen conn (offset + k))
                ~outstanding ~deadline_ns ()))
    in
    let spans = Array.init 2 (fun _ -> Spans.create ()) in
    (* Each slice takes its own stretch of the streams, so no request repeats. *)
    let sl =
      slices ~seconds ~traced (fun ~seconds ~traced index ->
          let offset = index * slice_stride in
          if traced then load ~trace_of:(fun conn -> spans.(conn)) ~offset ~seconds ()
          else load ~offset ~seconds ())
    in
    let rtt =
      if not traced then [||]
      else
        (* The last answer of the last untraced slice is still cached. *)
        let last = List.find (fun s -> not s.traced) (List.rev sl) in
        match List.rev (List.hd last.load.results).responses with
        | (k, answer) :: _ ->
          let rtt, bad =
            off_the_books hc probes (fun () ->
                round_trips ~socket:server.socket
                  ~item:(gen 0 ((last.index * slice_stride) + k))
                  ~expected:answer ~n:2000)
          in
          fail bad "round trips that differ from the first answer";
          rtt
        | [] -> [||]
    in
    (* Cache counters at the end of the run, round trips left out. *)
    let h1 = delta !probes (health hc) in
    Loadgen.close hc;
    let peak = float_of_int (Proc.vm_hwm_kib server.pid) /. 1024. in
    (warm_answers, sl, delta h0 h1, rtt, peak, Array.to_list spans)
  in
  let warm_answers, sl, cache, rtt, peak, spans = outcome in
  env.idle ();
  let main = side ~traced:false sl in
  (* Every answer is checked against the reference. *)
  let checked = ref [] in
  let add ~timed conn (it : Corpus.item) answer =
    checked := { conn; item = it; answer; timed } :: !checked
  in
  Array.iteri (fun conn items -> Array.iteri (fun i it -> add ~timed:false conn it warm_answers.(conn).(i)) items) warm;
  let add_run ~timed ~offset (l : load) =
    List.iteri
      (fun conn (r : Loadgen.result) ->
        List.iter (fun (k, a) -> add ~timed conn (gen conn (offset + k)) a) r.responses)
      l.results
  in
  List.iter (fun s -> add_run ~timed:(not s.traced) ~offset:(s.index * slice_stride) s.load) sl;
  let checked = Array.of_list (List.rev !checked) in
  (* The traced replay also needs every miss kind and some hits, which
     serve-live never produces (it never asks [route], and never repeats
     a question): mc-batch's served twin questions ride along, twice on
     each codec. *)
  let coverage =
    if not traced then [||]
    else
      Array.concat
        (List.init 4 (fun pass ->
             Array.mapi
               (fun i body ->
                 ( pass mod 2,
                   Corpus.item Corpus.codecs.(pass mod 2) ~hot:false
                     { Serve.Request.id = Some (Printf.sprintf "cover%d-%d" pass i); body } ))
               Corpus.twin_questions))
  in
  let refs =
    Reference.compute ~exe:env.exe ~workdir:env.workdir ~parallel:(Proc.nproc ())
      (Array.append
         (Array.map (fun c -> c.item.Corpus.req) checked)
         (Array.map (fun (_, (it : Corpus.item)) -> it.req) coverage))
  in
  let mismatched = ref 0 and timed_mismatched = ref 0 and not_ok = ref 0 in
  Array.iter (fun r -> if not (Reference.is_ok r) then incr not_ok) refs;
  Array.iteri
    (fun i c ->
      if c.answer <> refs.(i) then begin
        incr mismatched;
        if c.timed then incr timed_mismatched
      end)
    checked;
  fail !not_ok "reference answers not ok";
  fail !mismatched "mismatched responses";
  fail (sent main - answered main) "missing responses";
  List.iter (fun e -> fail 1 ("connection error: " ^ e)) (errors main);
  let traced_load = if traced then Some (side ~traced:true sl) else None in
  Option.iter
    (fun tl ->
      fail (sent tl - answered tl) "missing responses (traced load)";
      List.iter (fun e -> fail 1 ("connection error (traced load): " ^ e)) (errors tl))
    traced_load;
  let correct = answered main - !timed_mismatched in
  let n = float_of_int (max 1 (answered main)) in
  let sent_items = sent_untraced sl (fun s conn k -> gen conn ((s.index * slice_stride) + k)) in
  let replay =
    let nc = Array.length checked in
    let first = Array.init (min nc replay_cap) (fun i ->
        let c = checked.(i) in
        { Replay.item = c.item; codec = Corpus.codecs.(c.conn); expected = refs.(i) })
    in
    Array.append first
      (Array.mapi
         (fun i (conn, it) -> { Replay.item = it; codec = Corpus.codecs.(conn); expected = refs.(nc + i) })
         coverage)
  in
  {
    attempted = sent main + (2 * live_warm);
    failed = tally.failed;
    failures = List.rev tally.lines;
    setup_s;
    throughput_rps = float_of_int correct /. main.wall_s;
    latency_ms = latencies main;
    peak_rss_mib = peak;
    cache;
    server_cpu_us_per_req = main.server_cpu_s *. 1e6 /. n;
    loadgen_cpu_us_per_req = main.loadgen_cpu_s *. 1e6 /. n;
    properties = Corpus.properties sent_items;
    traced_throughput_rps =
      Option.map (fun (tl : load) -> float_of_int (answered tl) /. tl.wall_s) traced_load;
    rtt_us = rtt;
    replay;
    spans;
  }
