(* The traced per-layer replay: the workload's own requests go through
   the serve layers' public functions, one span per call, in the order
   [Engine.handle] calls them, and then through the engine itself, so
   the layer self times can be held against the whole. *)

let now = Obs.Monotonic.now_int_ns

type entry = { item : Corpus.item; codec : Corpus.codec; expected : string }

type per_request = {
  span : int;  (** The request's parent span. *)
  codec : Corpus.codec;
  kind : string;
  hit : bool;
}

(* What one empty span costs: subtracted from every layer's self time. *)
let span_overhead_ns () =
  let sp = Spans.create () in
  for _ = 1 to 20_000 do
    Spans.leave sp (Spans.enter sp ~name:"empty" ~parent:Spans.no_parent)
  done;
  let d = Array.init (Spans.length sp) (fun i -> float_of_int (Spans.duration sp i)) in
  Stats.median d

(* The body the engine caches is the response after the schema and id. *)
let body_of ~id expected =
  let prefix = Serve.Response.assemble ~id "" in
  let n = String.length prefix in
  if String.length expected < n || String.sub expected 0 n <> prefix then
    failwith "reference response does not start with the assembled prefix";
  String.sub expected n (String.length expected - n)

let sr_at params ~p_star ~q =
  if q = 0. then Swap.Success.analytic params ~p_star
  else Swap.Collateral.success_rate (Swap.Collateral.symmetric params ~q) ~p_star

(* The solver a cache miss of this kind runs, one span per solver call. *)
let solve sp ~parent engine (req : Serve.Request.t) =
  let span name f =
    let s = Spans.enter sp ~name ~parent in
    ignore (Sys.opaque_identity (f ()));
    Spans.leave sp s
  in
  let open Serve.Request in
  match req.body with
  | Cutoffs { params; p_star } ->
    span "cutoff.p_t3_low" (fun () -> Swap.Cutoff.p_t3_low params ~p_star);
    span "cutoff.p_t2_band" (fun () -> Swap.Cutoff.p_t2_band_endpoints params ~p_star);
    span "cutoff.p_star_band" (fun () -> Swap.Cutoff.p_star_band_endpoints params)
  | Success_rate { params; p_star; q } ->
    if q = 0. then span "success.analytic" (fun () -> Swap.Success.analytic params ~p_star)
    else
      span "collateral.success_rate" (fun () ->
          Swap.Collateral.success_rate (Swap.Collateral.symmetric params ~q) ~p_star)
  | Sweep { params; q; spec } ->
    span "sweep.points" (fun () ->
        Array.map
          (fun p_star -> sr_at params ~p_star ~q)
          (Numerics.Grid.linspace ~lo:spec.lo ~hi:spec.hi ~n:spec.n))
  | Quote { mu; sigma; spot } ->
    span "quote_table.lookup" (fun () ->
        Market.Quote_table.lookup (Serve.Engine.quote_table engine) ~mu ~sigma ~spot)
  | Route { from_tok; to_tok; max_hops } ->
    span "router.best" (fun () ->
        Swapgraph.Router.best (Serve.Engine.route_universe engine) ~from_tok ~to_tok ~max_hops)
  | Health | Stats -> ()

let strip_newline s =
  let n = String.length s in
  if n > 0 && s.[n - 1] = '\n' then String.sub s 0 (n - 1) else s

(* Decode through the codec's own entry point. *)
let decode ib (e : entry) =
  match e.codec with
  | Corpus.Json -> Serve.Request.decode (strip_newline e.item.wire)
  | Corpus.Binary -> (
    Serve.Iobuf.add_string ib e.item.wire;
    match Serve.Binary.decode_frame ib with
    | `Frame payload -> Serve.Binary.decode_payload payload
    | `Need_more | `Too_large _ -> failwith "replay: frame did not decode")

(* First-call costs (code and data not yet touched) stay out of both
   passes: decode and key every request, and run each miss solver once
   on the served twin questions. *)
let warm_up engine (entries : entry array) =
  let ib = Serve.Iobuf.create () in
  Array.iter
    (fun e ->
      match decode ib e with
      | Ok req -> ignore (Sys.opaque_identity (Serve.Request.key req))
      | Error _ -> ())
    entries;
  let sp = Spans.create () in
  Array.iter
    (fun body -> solve sp ~parent:Spans.no_parent engine { Serve.Request.id = None; body })
    Corpus.twin_questions

(* One request through the layers' own entry points, one span per call
   under a per-request span. *)
let layered sp cache ib engine (e : entry) =
  let parent = Spans.enter sp ~name:"request" ~parent:Spans.no_parent in
  let codec = Corpus.codec_name e.codec in
  let s = Spans.enter sp ~name:"telemetry.make" ~parent in
  let clock = Serve.Telemetry.make ~codec ~read_ns:(now ()) in
  Spans.leave sp s;
  let name =
    match e.codec with Corpus.Json -> "request.decode" | Corpus.Binary -> "binary.decode_frame"
  in
  let s = Spans.enter sp ~name ~parent in
  let decoded = decode ib e in
  Spans.leave sp s;
  let req = match decoded with Ok r -> r | Error _ -> failwith "replay: request did not decode" in
  let s = Spans.enter sp ~name:"request.key" ~parent in
  let key = Serve.Request.key req in
  Spans.leave sp s;
  let s = Spans.enter sp ~name:"cache.find" ~parent in
  let found = Serve.Cache.find cache key in
  Spans.leave sp s;
  let kind = Corpus.kind_of req in
  let body =
    match found with
    | Some body ->
      Spans.rename sp s "cache.find_hit";
      body
    | None ->
      Spans.rename sp s "cache.find_miss";
      let solver = Spans.enter sp ~name:("solve." ^ kind) ~parent in
      solve sp ~parent:solver engine req;
      Spans.leave sp solver;
      let body = body_of ~id:req.id e.expected in
      let s = Spans.enter sp ~name:"cache.add" ~parent in
      Serve.Cache.add cache key body;
      Spans.leave sp s;
      body
  in
  let s = Spans.enter sp ~name:"response.assemble" ~parent in
  let resp = Serve.Response.assemble ~id:req.id body in
  Spans.leave sp s;
  let s = Spans.enter sp ~name:"telemetry.finish" ~parent in
  Serve.Telemetry.finish clock ~flush_ns:(now ());
  Spans.leave sp s;
  Spans.leave sp parent;
  ({ span = parent; codec = e.codec; kind; hit = found <> None }, resp = e.expected)

(* The same request through the reactor's compute path: a telemetry
   clock, [Engine.handle] (JSON) or the binary decode plus
   [Engine.handle_decoded], and the clock's [finish]. *)
let through_engine ib engine (e : entry) =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let clock = Serve.Telemetry.make ~codec:(Corpus.codec_name e.codec) ~read_ns:t0 in
  let resp =
    match e.codec with
    | Corpus.Json -> Serve.Engine.handle ~clock engine (strip_newline e.item.wire)
    | Corpus.Binary -> (
      match decode ib e with
      | Ok req -> Serve.Engine.handle_decoded ~clock engine req
      | Error err -> Serve.Engine.reject ~clock engine err)
  in
  Serve.Telemetry.finish clock ~flush_ns:(now ());
  (float_of_int (now () - t0), Gc.minor_words () -. w0, resp = e.expected)

type replay = {
  spans : Spans.t;
  requests : per_request array;
  ns : float array;  (** Engine path time per request. *)
  words : float array;  (** Engine path minor words per request. *)
  mismatches : int;  (** Answers of either path that differ from the reference. *)
}

(* Both paths request by request, alternating which goes first, so that
   both see the same host conditions and neither always finds the other's
   data in the CPU caches.  The replay's own result cache mirrors the
   engine's (same defaults, same sequence), so both hit and miss on the
   same requests; cutoff memos are cleared before each request so that
   neither path computes on the other's memoised solutions. *)
let run (engine : Serve.Engine.t) (entries : entry array) =
  let sp = Spans.create () in
  let cache = Serve.Cache.create () in
  let ib = Serve.Iobuf.create () in
  let n = Array.length entries in
  let ns = Array.make n 0. and words = Array.make n 0. and bad = ref 0 in
  let requests =
    Array.mapi
      (fun i e ->
        let engine_side () =
          let t, w, ok = through_engine ib engine e in
          ns.(i) <- t;
          words.(i) <- w;
          if not ok then incr bad
        in
        Swap.Cutoff.clear_caches ();
        if i mod 2 = 1 then engine_side ();
        let pr, ok = layered sp cache ib engine e in
        if not ok then incr bad;
        Swap.Cutoff.clear_caches ();
        if i mod 2 = 0 then engine_side ();
        pr)
      entries
  in
  { spans = sp; requests; ns; words; mismatches = !bad }

let miss_kinds = [ "cutoffs"; "success_rate"; "success_rate_q"; "sweep"; "quote"; "route" ]

(* Per-layer metrics from a replay. *)
let metrics ~overhead_ns (l : replay) =
  let self = Spans.self_times l.spans in
  let n = Spans.length l.spans in
  let by_name = Hashtbl.create 32 in
  let add name v w =
    let s, ws =
      match Hashtbl.find_opt by_name name with
      | Some b -> b
      | None ->
        let b = (Stats.Buf.create (), Stats.Buf.create ()) in
        Hashtbl.add by_name name b;
        b
    in
    Stats.Buf.add s v;
    Stats.Buf.add ws w
  in
  for i = 0 to n - 1 do
    let nm = Spans.name l.spans i in
    if nm <> "request" then
      add nm (Float.max 0. (float_of_int self.(i) -. overhead_ns)) (Spans.words l.spans i)
  done;
  let med name =
    match Hashtbl.find_opt by_name name with
    | Some (s, _) -> Stats.median (Stats.Buf.to_array s)
    | None -> nan
  and med_words name =
    match Hashtbl.find_opt by_name name with
    | Some (_, w) -> Stats.median (Stats.Buf.to_array w)
    | None -> nan
  in
  (* Whole duration (children included) of every span with this name. *)
  let total name =
    let acc = ref 0. in
    for i = 0 to n - 1 do
      if Spans.name l.spans i = name then acc := !acc +. float_of_int (Spans.duration l.spans i)
    done;
    !acc
  in
  (* Layer self time per request: the direct children of its span. *)
  let layer_sum = Array.make (Array.length l.requests) 0. in
  let span_req = Array.make n (-1) in
  Array.iteri (fun r (pr : per_request) -> span_req.(pr.span) <- r) l.requests;
  for i = 0 to n - 1 do
    let p = Spans.parent l.spans i in
    if p >= 0 && span_req.(p) >= 0 then
      layer_sum.(span_req.(p)) <-
        layer_sum.(span_req.(p)) +. Float.max 0. (float_of_int self.(i) -. overhead_ns)
  done;
  let select f =
    let idx = ref [] in
    Array.iteri (fun r pr -> if f pr then idx := r :: !idx) l.requests;
    Array.of_list (List.rev !idx)
  in
  let mean_over idx a =
    if Array.length idx = 0 then nan
    else Stats.mean (Array.map (fun r -> a.(r)) idx)
  in
  let median_over idx a =
    if Array.length idx = 0 then nan else Stats.median (Array.map (fun r -> a.(r)) idx)
  in
  let hits_json = select (fun pr -> pr.hit && pr.codec = Corpus.Json) in
  let hits_bin = select (fun pr -> pr.hit && pr.codec = Corpus.Binary) in
  let hits = select (fun pr -> pr.hit) in
  (* The part of the engine's time the layers do not explain, request
     by request (both paths ran back to back on the same request), as a
     median over the hit path, or over every request when a workload
     has no hits. *)
  let basis = if Array.length hits > 0 then hits else Array.init (Array.length l.requests) Fun.id in
  let residual = median_over basis (Array.mapi (fun r t -> 1. -. (layer_sum.(r) /. t)) l.ns) in
  let request_total = Array.map (fun (pr : per_request) -> float_of_int (Spans.duration l.spans pr.span)) l.requests in
  let miss_rows =
    List.concat_map
      (fun kind ->
        let idx = select (fun pr -> (not pr.hit) && pr.kind = kind) in
        let replay_total = Array.fold_left (fun a r -> a +. request_total.(r)) 0. idx in
        [
          (Printf.sprintf "engine.miss_ns.%s" kind, mean_over idx l.ns, "ns");
          (* Share of a miss's layered path spent in its solver. *)
          ( Printf.sprintf "engine.compute_share.%s" kind,
            total ("solve." ^ kind) /. replay_total,
            "ratio" );
        ])
      miss_kinds
  in
  [
      ("request.decode_ns", med "request.decode", "ns");
      ("request.decode_words", med_words "request.decode", "words");
      ("request.key_ns", med "request.key", "ns");
      ("request.key_words", med_words "request.key", "words");
      ("binary.decode_frame_ns", med "binary.decode_frame", "ns");
      ("binary.decode_frame_words", med_words "binary.decode_frame", "words");
      ("cache.find_hit_ns", med "cache.find_hit", "ns");
      ("cache.find_miss_ns", med "cache.find_miss", "ns");
      ("cache.add_ns", med "cache.add", "ns");
      ("response.assemble_ns", med "response.assemble", "ns");
      ("response.assemble_words", med_words "response.assemble", "words");
      ("telemetry.finish_ns", med "telemetry.finish", "ns");
      ("engine.hit_ns.json", median_over hits_json l.ns, "ns");
      ("engine.hit_ns.binary", median_over hits_bin l.ns, "ns");
      ("engine.hit_words", median_over hits l.words, "words");
      ("engine.residual_frac", residual, "ratio");
      ("quote_table.lookup_ns", med "quote_table.lookup", "ns");
      ("cutoff.p_t3_low_ns", med "cutoff.p_t3_low", "ns");
      ("cutoff.p_t2_band_ns", med "cutoff.p_t2_band", "ns");
      ("cutoff.p_star_band_ns", med "cutoff.p_star_band", "ns");
      ("success.analytic_ns", med "success.analytic", "ns");
      ("collateral.success_rate_ns", med "collateral.success_rate", "ns");
    ]
  @ miss_rows
