(* perfbench: one run of one workload; see perfbench/README.md.

   The last line of standard output is the result object
   {"correct", "attempted", "failed", "metrics"}; the line before it
   describes the host and the configuration.  Exit code 0 only when
   every check passed. *)

open Perfbench

let workloads = [ "serve-hot"; "serve-live"; "mc-batch" ]

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  server_exe : string;
}

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let server_exe = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  measured time per run");
      ("--trace", Arg.Set_int trace, "0|1  per-layer traced run");
      ("--server-exe", Arg.Set_string server_exe, "PATH  the swap_cli executable");
    ]
  in
  let usage = "main.exe --workload W --seed N --seconds S --trace 0|1 --server-exe PATH" in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if not (List.mem !workload workloads) then raise (Arg.Bad ("unknown workload " ^ !workload));
  if !seconds <= 0. then raise (Arg.Bad "--seconds must be positive");
  if !trace <> 0 && !trace <> 1 then raise (Arg.Bad "--trace must be 0 or 1");
  if not (Sys.file_exists !server_exe) then raise (Arg.Bad ("no server executable at " ^ !server_exe));
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1; server_exe = !server_exe }

let workdir = ".perfbench"

(* --- descriptor --------------------------------------------------------- *)

let rec source_files dir =
  match Sys.readdir dir with
  | entries ->
    Array.sort compare entries;
    Array.to_list entries
    |> List.concat_map (fun e ->
           let p = Filename.concat dir e in
           if Sys.is_directory p then source_files p
           else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli" then [ p ]
           else [])
  | exception Sys_error _ -> []

(* Checkouts without git metadata still get a content identity. *)
let source_digest () =
  source_files "lib" @ source_files "bin"
  |> List.map (fun p -> p ^ "\000" ^ Proc.read_file p)
  |> String.concat "\000" |> Digest.string |> Digest.to_hex

let json_str = Obs.Json.str
let json_num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"
let json_obj fields = "{" ^ String.concat "," (List.map (fun (k, v) -> json_str k ^ ":" ^ v) fields) ^ "}"
let json_arr xs = "[" ^ String.concat "," xs ^ "]"

let properties_json (p : Corpus.properties) =
  json_obj
    [
      ("requests", string_of_int p.requests);
      ("hot_share", json_num p.hot_share);
      ("params_repeat_share", json_num p.params_repeat_share);
      ("kind_mix", json_obj (List.map (fun (k, v) -> (k, json_num v)) p.kind_mix));
    ]

(* --- metrics ------------------------------------------------------------ *)

type outcome = {
  attempted : int;
  failed : int;
  failures : string list;
  metrics : (string * float * string) list;
  details : (string * string) list;  (** Extra descriptor fields. *)
  spans : Spans.t list;
}

(* Trials per Monte-Carlo call, sweep specs, trials per sweep row. *)
let mc_sizes = (2_000_000, 64, 20_000)

let mc_check_failures (t : Mcbatch.timed) =
  List.filter_map Fun.id
    [
      (if t.plain_check.ok then None else Some "Monte-Carlo estimate outside 4 SE of Eq. 31");
      (if t.collateral_check.ok then None else Some "collateral estimate outside 4 SE of Eq. 40");
      (if t.bad_rows = 0 then None else Some (Printf.sprintf "%d bad sweep rows" t.bad_rows));
    ]

let mc_details (t : Mcbatch.timed) =
  [
    ( "monte_carlo_checks",
      "{" ^ Mcbatch.check_json "eq31" t.plain_check ^ "," ^ Mcbatch.check_json "eq40" t.collateral_check ^ "}" );
    ("monte_carlo_rounds", string_of_int t.rounds);
  ]

let serve_untraced a env =
  (* mc-batch's rounds, so every workload reports every end-to-end
     metric: one first, while the child is as fresh as mc-batch's
     process, then one wherever the run is idle and one at the end, so
     that the median samples the host across the whole run. *)
  let trials, specs, sweep_trials = mc_sizes in
  let inp = Mcbatch.build_inputs ~seed:a.seed ~sweep_specs:specs in
  let child = Mcbatch.fork_rounds ~seed:a.seed ~trials ~sweep_trials inp in
  let rounds = ref [] in
  let mc_round () = rounds := Mcbatch.remote_round child (List.length !rounds) :: !rounds in
  mc_round ();
  let env = { env with Serve_load.idle = mc_round } in
  let r =
    if a.workload = "serve-hot" then Serve_load.hot env ~seconds:a.seconds ~setups:3 ~traced:false
    else Serve_load.live env ~seconds:a.seconds ~setups:3 ~traced:false ~replay_cap:0
  in
  mc_round ();
  Mcbatch.close_remote child;
  let mc = Mcbatch.summarise ~trials ~wall_s:nan inp (List.rev !rounds) in
  let lat = r.latency_ms in
  let mc_fail = mc_check_failures mc in
  {
    attempted = r.attempted + (3 * mc.rounds);
    failed = r.failed + List.length mc_fail;
    failures = r.failures @ mc_fail;
    metrics =
      [
        ("setup_s", Stats.median (Array.of_list r.setup_s), "s");
        ("throughput_rps", r.throughput_rps, "req/s");
        ("latency_p50_ms", Stats.quantile lat 0.5, "ms");
        ("latency_p99_ms", Stats.quantile lat 0.99, "ms");
        ("mc_trials_per_s", mc.mc_rate, "trials/s");
        ("sweep_topologies_per_s", mc.sweep_rate, "1/s");
        ("peak_rss_mb", r.peak_rss_mib, "MiB");
      ];
    details =
      [
        ("setup_s_samples", json_arr (List.map json_num r.setup_s));
        ("latency_samples", string_of_int (Array.length lat));
        ("latency_samples_beyond_p99", string_of_int (Stats.beyond ~n:(Array.length lat) 0.99));
        ("properties", properties_json r.properties);
        ( "cache",
          json_obj
            [
              ("hits", string_of_int r.cache.hits);
              ("misses", string_of_int r.cache.misses);
              ("evictions", string_of_int r.cache.evictions);
            ] );
        ("server_cpu_us_per_req", json_num r.server_cpu_us_per_req);
        ("loadgen_cpu_us_per_req", json_num r.loadgen_cpu_us_per_req);
        ("monte_carlo", "\"rounds of the mc-batch calls: first, between set-ups, between the load and its check (serve-live), last\"");
      ]
      @ mc_details mc;
    spans = [];
  }

let mc_untraced a =
  let trials, specs, sweep_trials = mc_sizes in
  (* Set-up, repeated: the median is reported. *)
  let setups =
    Array.init 9 (fun _ ->
        let t0 = Obs.Monotonic.now_int_ns () in
        ignore (Sys.opaque_identity (Mcbatch.build_inputs ~seed:a.seed ~sweep_specs:specs));
        float_of_int (Obs.Monotonic.now_int_ns () - t0) *. 1e-9)
  in
  let inp = Mcbatch.build_inputs ~seed:a.seed ~sweep_specs:specs in
  let t = Mcbatch.timed ~seed:a.seed ~seconds:a.seconds ~trials ~sweep_trials inp in
  let walls = Array.of_list (List.map (fun s -> s *. 1e3) t.call_walls_s) in
  let fails = mc_check_failures t in
  {
    attempted = Array.length walls;
    failed = List.length fails;
    failures = fails;
    metrics =
      [
        ("setup_s", Stats.median setups, "s");
        ("throughput_rps", float_of_int (Array.length walls) /. t.wall_s, "req/s");
        ("latency_p50_ms", Stats.quantile walls 0.5, "ms");
        ("latency_p99_ms", Stats.quantile walls 0.99, "ms");
        ("mc_trials_per_s", t.mc_rate, "trials/s");
        ("sweep_topologies_per_s", t.sweep_rate, "1/s");
        ("peak_rss_mb", float_of_int (Proc.vm_hwm_kib 0) /. 1024., "MiB");
      ];
    details =
      [
        ("setup_s_samples", json_arr (Array.to_list (Array.map json_num setups)));
        ("requests", "\"one request = one Monte-Carlo or sweep entry-point call\"");
        ("calls", string_of_int (Array.length walls));
        ("trials_per_call", string_of_int trials);
        ("sweep_specs", string_of_int specs);
        ("sweep_trials_per_row", string_of_int sweep_trials);
      ]
      @ mc_details t;
    spans = [];
  }

(* --- traced run ----------------------------------------------------------- *)

let traced a env =
  let seconds = a.seconds in
  let r =
    match a.workload with
    | "serve-hot" -> Serve_load.hot env ~seconds ~setups:1 ~traced:true
    | "serve-live" -> Serve_load.live env ~seconds ~setups:1 ~traced:true ~replay_cap:800
    | _ -> Serve_load.twin env ~seconds:(Float.min seconds 4.) ~setups:1 ~traced:true
  in
  (* The batch layers first: nothing else lives in the process yet. *)
  let trials, specs, sweep_trials = mc_sizes in
  let inp = Mcbatch.build_inputs ~seed:a.seed ~sweep_specs:specs in
  let identical, mc_metrics = Mcbatch.traced ~seed:a.seed ~trials ~sweep_trials ~reps:3 inp in
  let time f =
    let t0 = Obs.Monotonic.now_int_ns () in
    let x = f () in
    (x, float_of_int (Obs.Monotonic.now_int_ns () - t0) *. 1e-9)
  in
  let _, build_s = time (fun () -> Market.Quote_table.build Swap.Params.defaults) in
  (* No worker domains: idle domains still join every stop-the-world
     minor collection and would inflate every layer's time. *)
  let engine, create_s = time (fun () -> Serve.Engine.create ~workers:0 ()) in
  let overhead_ns = Replay.span_overhead_ns () in
  Replay.warm_up engine r.replay;
  let replay = Replay.run engine r.replay in
  let layer_metrics = Replay.metrics ~overhead_ns replay in
  let fails =
    (if replay.mismatches > 0 then
       [ Printf.sprintf "%d replayed or in-process engine answers differ from the reference" replay.mismatches ]
     else [])
    @ if identical then [] else [ "Monte-Carlo or sweep results differ between jobs = 1 and jobs = nproc" ]
  in
  let rtt q = if Array.length r.rtt_us = 0 then nan else Stats.quantile r.rtt_us q in
  let hit_ratio =
    float_of_int r.cache.hits /. float_of_int (max 1 (r.cache.hits + r.cache.misses))
  in
  {
    attempted = r.attempted + Array.length r.replay + 1;
    failed = r.failed + List.length fails;
    failures = r.failures @ fails;
    metrics =
      layer_metrics
      @ [
          ("cache.hit_ratio", hit_ratio, "ratio");
          ("cache.evictions", float_of_int r.cache.evictions, "count");
          ("engine.create_s", create_s, "s");
          ("server.cpu_us_per_req", r.server_cpu_us_per_req, "us");
          ("reactor.rtt_p50_us", rtt 0.5, "us");
          ("reactor.rtt_p99_us", rtt 0.99, "us");
          ("loadgen.cpu_us_per_req", r.loadgen_cpu_us_per_req, "us");
          ("quote_table.build_s", build_s, "s");
        ]
      @ mc_metrics
      @ [
          ( "trace.overhead_frac",
            (match r.traced_throughput_rps with
            | Some t -> 1. -. (t /. r.throughput_rps)
            | None -> nan),
            "ratio" );
        ];
    details =
      [
        ("span_overhead_ns", json_num overhead_ns);
        ("replayed_requests", string_of_int (Array.length r.replay));
        ("properties", properties_json r.properties);
        ("untraced_throughput_rps", json_num r.throughput_rps);
        ( "traced_throughput_rps",
          match r.traced_throughput_rps with Some t -> json_num t | None -> "null" );
        ("jobs_invariant", string_of_bool identical);
      ];
    spans = r.spans @ [ replay.spans ];
  }

(* Spans are written when the run ends: a header line, then one array
   [id, name, parent, start_ns, stop_ns, minor_words] per span, times
   relative to the earliest span.  Load-generator request spans beyond
   [max_load_spans] per connection are counted, not written. *)
let max_load_spans = 100_000

let write_trace a spans =
  let path = Filename.concat workdir (Printf.sprintf "trace-%s-%d.jsonl" a.workload a.seed) in
  Out_channel.with_open_bin path (fun oc -> Spans.write_all ~max_per_recorder:max_load_spans oc spans);
  path

let main () =
  let a =
    try parse_args ()
    with Arg.Bad msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 2
  in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let quit = Sys.Signal_handle (fun _ -> exit 3) in
  Sys.set_signal Sys.sigterm quit;
  Sys.set_signal Sys.sigint quit;
  (try Unix.mkdir workdir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let env = { Serve_load.exe = a.server_exe; workdir; seed = a.seed; idle = ignore } in
  let steal0, total0 = Proc.host_ticks () in
  let host_loop_ns = Proc.host_loop_ns () in
  let o =
    if a.trace then traced a env
    else if a.workload = "mc-batch" then mc_untraced a
    else serve_untraced a env
  in
  let host_steal_share =
    let steal1, total1 = Proc.host_ticks () in
    float_of_int (steal1 - steal0) /. float_of_int (max 1 (total1 - total0))
  in
  let trace_file = if a.trace then Some (write_trace a o.spans) else None in
  let failures = o.failures in
  let descriptor =
    json_obj
      ([
         ("record", json_str "perfbench/descriptor");
         ("workload", json_str a.workload);
         ("seed", string_of_int a.seed);
         ("seconds", json_num a.seconds);
         ("trace", string_of_bool a.trace);
         ("nproc", string_of_int (Proc.nproc ()));
         ("host_loop_ns", json_num host_loop_ns);
         ("host_steal_share", json_num host_steal_share);
         ("ocaml_version", json_str Sys.ocaml_version);
         ( "ocamlrunparam",
           match Sys.getenv_opt "OCAMLRUNPARAM" with Some v -> json_str v | None -> "null" );
         ( "git_commit",
           match Proc.command_line ~dir:workdir "git" [ "rev-parse"; "HEAD" ] with
           | Some c -> json_str c
           | None -> "null" );
         ("source_digest", json_str (source_digest ()));
         ( "server_command",
           json_str
             (if a.workload = "mc-batch" && not a.trace then "none (in-process batch)"
              else a.server_exe ^ " serve --socket " ^ workdir ^ "/s<i>.sock") );
         ( "load",
           json_str
             (match a.workload with
             | "serve-hot" -> "2 connections (json, binary) from one thread, closed loop, 64-request bursts"
             | "serve-live" -> "2 connections (json, binary), closed loop, 4 requests in flight each"
             | _ ->
               if a.trace then "2 connections (json, binary) from one thread, closed loop, 64-request bursts"
               else "in-process, jobs = nproc") );
         ("failures", json_arr (List.map json_str failures));
         ( "trace_file",
           match trace_file with Some p -> json_str p | None -> "null" );
       ]
      @ o.details)
  in
  print_endline descriptor;
  let correct = o.failed = 0 && failures = [] in
  let metrics =
    json_obj
      (List.map
         (fun (name, v, unit) -> (name, json_obj [ ("value", json_num v); ("unit", json_str unit) ]))
         o.metrics)
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":%s}\n%!" correct
    (max 1 o.attempted) o.failed metrics;
  exit (if correct then 0 else 1)

let () =
  try main ()
  with e ->
    Printf.eprintf "perfbench: %s\n%!" (Printexc.to_string e);
    if Printexc.backtrace_status () then Printexc.print_backtrace stderr;
    exit 2
