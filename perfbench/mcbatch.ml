(* The Monte-Carlo batch: the Eq. 31 and Eq. 40 cross-checks and the
   N-party swap-graph sweep, called through the library's entry points
   at jobs = nproc. *)

let now = Obs.Monotonic.now_int_ns
let secs t0 t1 = float_of_int (t1 - t0) *. 1e-9
let p_star = 2.
let q = 0.5

type inputs = {
  params : Swap.Params.t;
  policy : Swap.Agent.t;
  collateral : Swap.Collateral.t;
  analytic : float;  (** Eq. 31 at P* = 2. *)
  analytic_collateral : float;  (** Eq. 40 at P* = 2, Q = 0.5. *)
  specs : Swapgraph.Sweep.spec list;
}

let families = Swapgraph.Topology.[| Cycle; Star; Bridge; Random |]

(* Everything up to the first trial.  Cutoff memos are cleared first so
   that every repetition does the same work. *)
let build_inputs ~seed ~sweep_specs =
  Swap.Cutoff.clear_caches ();
  let params = Swap.Params.defaults in
  let collateral = Swap.Collateral.symmetric params ~q in
  let st = Random.State.make [| seed; 0x5a9 |] in
  {
    params;
    policy = Swap.Agent.rational params ~p_star;
    collateral;
    analytic = Swap.Success.analytic params ~p_star;
    analytic_collateral = Swap.Collateral.success_rate collateral ~p_star;
    (* Families, sizes and slacks follow a fixed pattern, so the seed
       changes which random graphs are drawn but not the sweep's size. *)
    specs =
      List.init sweep_specs (fun i ->
          {
            Swapgraph.Sweep.family = families.(i mod 4);
            size = 5 + (i / 4 mod 4);
            slack = float_of_int (i / 16 mod 3);
            topo_seed = Random.State.int st 1_000_000;
          });
  }

let plain ?(jobs = Proc.nproc ()) inp ~trials ~seed =
  Swap.Montecarlo.run ~trials ~seed ~jobs inp.params ~p_star ~policy:inp.policy

let collateral ?(jobs = Proc.nproc ()) inp ~trials ~seed =
  Swap.Montecarlo.run_collateral ~trials ~seed ~jobs inp.collateral ~p_star

let sweep ?(jobs = Proc.nproc ()) inp ~trials ~seed =
  let p = inp.params in
  Swapgraph.Sweep.run ~jobs ~trials ~seed ~tau:p.Swap.Params.tau_b ~eps:p.Swap.Params.eps_b
    ~policy:(Swap.Graphlink.depth_aware_policy p ~p_star)
    ~payoffs:(Swap.Graphlink.payoffs p) inp.specs

(* Pooled estimate of a run of Monte-Carlo results against the analytic
   value: successes over initiated swaps, within [k] standard errors. *)
type check = { estimate : float; expected : float; se : float; initiated : int; ok : bool }

let pooled ~expected (rs : Swap.Montecarlo.result list) =
  let succ = List.fold_left (fun a r -> a + r.Swap.Montecarlo.successes) 0 rs in
  let init = List.fold_left (fun a r -> a + r.Swap.Montecarlo.initiated) 0 rs in
  let estimate = if init = 0 then nan else float_of_int succ /. float_of_int init in
  let se = sqrt (expected *. (1. -. expected) /. float_of_int (max 1 init)) in
  { estimate; expected; se; initiated = init; ok = init > 0 && Float.abs (estimate -. expected) <= 4. *. se }

let row_ok (r : Swapgraph.Sweep.row) = r.sr >= 0. && r.sr <= 1.

type timed = {
  call_walls_s : float list;  (** Wall time of every entry-point call. *)
  rounds : int;
  mc_rate : float;  (** Median over rounds of plain + collateral trials over their wall time. *)
  sweep_rate : float;  (** Median over rounds of sweep rows over the sweep's wall time. *)
  plain_check : check;
  collateral_check : check;
  bad_rows : int;
  wall_s : float;
}

(* One (plain, collateral, sweep) round and the wall time of each call. *)
type round = {
  plain_r : Swap.Montecarlo.result;
  collateral_r : Swap.Montecarlo.result;
  rows : int;
  bad_rows : int;  (** Rows outside [0, 1], plus rows missing or extra. *)
  walls_s : float * float * float;
}

(* Round [index] draws from its own seeds, derived from the workload
   seed and the index. *)
let round ~seed ~trials ~sweep_trials inp index =
  let s = (seed * 7919) + (index * 3) in
  let t0 = now () in
  let plain_r = plain inp ~trials ~seed:s in
  let t1 = now () in
  let collateral_r = collateral inp ~trials ~seed:(s + 1) in
  let t2 = now () in
  let rows = sweep inp ~trials:sweep_trials ~seed:(s + 2) in
  let t3 = now () in
  let n = List.length rows in
  {
    plain_r;
    collateral_r;
    rows = n;
    bad_rows = List.length (List.filter (fun r -> not (row_ok r)) rows) + abs (n - List.length inp.specs);
    walls_s = (secs t0 t1, secs t1 t2, secs t2 t3);
  }

(* Rates are medians over rounds, so one slow stretch of the host moves
   them less than it would a sum. *)
let summarise ~trials ~wall_s inp rounds =
  let rate f = Stats.median (Array.of_list (List.map f rounds)) in
  {
    call_walls_s = List.concat_map (fun r -> let a, b, c = r.walls_s in [ a; b; c ]) rounds;
    rounds = List.length rounds;
    mc_rate = rate (fun r -> let a, b, _ = r.walls_s in float_of_int (2 * trials) /. (a +. b));
    sweep_rate = rate (fun r -> let _, _, c = r.walls_s in float_of_int r.rows /. c);
    plain_check = pooled ~expected:inp.analytic (List.map (fun r -> r.plain_r) rounds);
    collateral_check = pooled ~expected:inp.analytic_collateral (List.map (fun r -> r.collateral_r) rounds);
    bad_rows = List.fold_left (fun a r -> a + r.bad_rows) 0 rounds;
    wall_s;
  }

(* Rounds in a child forked while this process still runs one domain:
   the child's pool domains then never join the collections of the load
   generator.  [remote_round] runs round [i] there and waits for it;
   [close_remote] ends the child and waits until it has gone. *)
type remote = { pid : int; cmd : out_channel; res : in_channel }

let fork_rounds ~seed ~trials ~sweep_trials inp =
  let cmd_r, cmd_w = Unix.pipe ~cloexec:true () in
  let res_r, res_w = Unix.pipe ~cloexec:true () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
    Sys.set_signal Sys.sigterm Sys.Signal_default;
    Sys.set_signal Sys.sigint Sys.Signal_default;
    Unix.close cmd_w;
    Unix.close res_r;
    let ic = Unix.in_channel_of_descr cmd_r and oc = Unix.out_channel_of_descr res_w in
    let code =
      try
        while true do
          let r = round ~seed ~trials ~sweep_trials inp (input_binary_int ic) in
          Marshal.to_channel oc (r : round) [];
          flush oc
        done;
        0
      with
      | End_of_file -> 0
      | e ->
        prerr_endline ("perfbench: Monte-Carlo child: " ^ Printexc.to_string e);
        1
    in
    (* No at_exit handlers: they belong to the parent. *)
    Unix._exit code
  | pid ->
    Unix.close cmd_r;
    Unix.close res_w;
    Proc.adopt pid;
    { pid; cmd = Unix.out_channel_of_descr cmd_w; res = Unix.in_channel_of_descr res_r }

let remote_round r index =
  output_binary_int r.cmd index;
  flush r.cmd;
  (Marshal.from_channel r.res : round)

let close_remote r =
  close_out r.cmd;
  close_in r.res;
  match Proc.wait_exit r.pid with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith "the Monte-Carlo child failed"

(* Rounds until [seconds] have passed. *)
let timed ~seed ~seconds ~trials ~sweep_trials inp =
  let t_start = now () in
  let deadline = t_start + int_of_float (seconds *. 1e9) in
  let rec go i acc =
    if i > 0 && now () >= deadline then List.rev acc
    else go (i + 1) (round ~seed ~trials ~sweep_trials inp i :: acc)
  in
  let rounds = go 0 [] in
  summarise ~trials ~wall_s:(secs t_start (now ())) inp rounds

let check_json name c =
  Printf.sprintf
    "\"%s\":{\"estimate\":%.17g,\"analytic\":%.17g,\"se\":%.6g,\"initiated\":%d,\"within_4se\":%b}"
    name c.estimate c.expected c.se c.initiated c.ok

(* --- traced: the batch's layers, and the jobs-invariance check --------- *)

let traced ~seed ~trials ~sweep_trials ~reps inp =
  let jobs_n = Proc.nproc () in
  let rate ~jobs run =
    let t0 = now () in
    let r = run ~jobs in
    (r, float_of_int trials /. secs t0 (now ()))
  in
  (* Bit-identical at jobs = 1 and jobs = nproc. *)
  let p1 = plain ~jobs:1 inp ~trials ~seed and pn = plain ~jobs:jobs_n inp ~trials ~seed in
  let c1 = collateral ~jobs:1 inp ~trials ~seed and cn = collateral ~jobs:jobs_n inp ~trials ~seed in
  let project rows =
    List.map
      (fun (r : Swapgraph.Sweep.row) ->
        (r.spec, Int64.bits_of_float r.sr, Int64.bits_of_float r.max_exposure_hours,
         r.equilibrium_success, r.deviator))
      rows
  in
  let s1 = sweep ~jobs:1 inp ~trials:sweep_trials ~seed
  and sn = sweep ~jobs:jobs_n inp ~trials:sweep_trials ~seed in
  let identical = p1 = pn && c1 = cn && project s1 = project sn in
  (* Repetitions alternate the three timings, so a slow stretch of the
     host does not land on one of them only. *)
  let samples =
    Array.init reps (fun _ ->
        let j1 = snd (rate ~jobs:1 (fun ~jobs -> plain ~jobs inp ~trials ~seed)) in
        let jn = snd (rate ~jobs:jobs_n (fun ~jobs -> plain ~jobs inp ~trials ~seed)) in
        let c = snd (rate ~jobs:jobs_n (fun ~jobs -> collateral ~jobs inp ~trials ~seed)) in
        (j1, jn, c))
  in
  let med f = Stats.median (Array.map f samples) in
  let jobs1 = med (fun (x, _, _) -> x) and jobsn = med (fun (_, x, _) -> x) in
  let coll = med (fun (_, _, x) -> x) in
  let words_per_trial =
    let w0 = Gc.minor_words () in
    ignore (plain ~jobs:1 inp ~trials ~seed);
    (Gc.minor_words () -. w0) /. float_of_int trials
  in
  let gbm_sample_ns =
    let rng = Numerics.Rng.create ~seed () and gbm = Swap.Params.gbm inp.params in
    let n = 200_000 in
    Stats.median @@ Array.init reps (fun _ ->
        let t0 = now () in
        let acc = ref 0. in
        for _ = 1 to n do
          acc := !acc +. Stochastic.Gbm.sample rng gbm ~p0:2. ~tau:4.
        done;
        ignore (Sys.opaque_identity !acc);
        float_of_int (now () - t0) /. float_of_int n)
  in
  (* The sweep's component calls on its own specs. *)
  let p = inp.params in
  let tau = p.Swap.Params.tau_b and eps = p.Swap.Params.eps_b in
  let time_ns f =
    let t0 = now () in
    let r = f () in
    (r, float_of_int (now () - t0))
  in
  let gen = Stats.Buf.create () and assign = Stats.Buf.create () and analyse = Stats.Buf.create () in
  let mc_trials = ref 0 and mc_ns = ref 0. in
  List.iteri
    (fun i (s : Swapgraph.Sweep.spec) ->
      let g, t = time_ns (fun () -> Swapgraph.Topology.generate s.family ~n:s.size ~seed:s.topo_seed) in
      Stats.Buf.add gen t;
      let sched, t = time_ns (fun () -> Swapgraph.Timelock.assign ~slack:s.slack g ~tau ~eps) in
      Stats.Buf.add assign t;
      let pay = Swap.Graphlink.payoffs p g sched in
      let _, t = time_ns (fun () -> Swapgraph.Game.analyse g pay) in
      Stats.Buf.add analyse t;
      let pol = Swap.Graphlink.depth_aware_policy p ~p_star g sched in
      let _, t =
        time_ns (fun () ->
            Swapgraph.Mc.estimate ~trials:sweep_trials ~seed:(seed + i) ~jobs:1 g sched pol)
      in
      mc_trials := !mc_trials + sweep_trials;
      mc_ns := !mc_ns +. t)
    inp.specs;
  let med_buf b = Stats.median (Stats.Buf.to_array b) in
  ( identical,
    [
      ("montecarlo.trials_per_s.jobs1", jobs1, "trials/s");
      ("montecarlo.trials_per_s.jobsN", jobsn, "trials/s");
      ("montecarlo.collateral_trials_per_s", coll, "trials/s");
      ("montecarlo.words_per_trial", words_per_trial, "words");
      ("pool.scaling_efficiency", jobsn /. jobs1 /. float_of_int jobs_n, "ratio");
      ("gbm.sample_ns", gbm_sample_ns, "ns");
      ("topology.generate_ns", med_buf gen, "ns");
      ("timelock.assign_ns", med_buf assign, "ns");
      ("game.analyse_ns", med_buf analyse, "ns");
      ("swapgraph_mc.trials_per_s", float_of_int !mc_trials /. (!mc_ns *. 1e-9), "trials/s");
    ] )
