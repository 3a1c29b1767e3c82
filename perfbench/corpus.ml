(* Seeded request corpora.  Every request is a pure function of the
   workload seed and its position, drawn from the stdlib generator (not
   the repository's [Numerics.Rng], so a change to the program under
   test never changes the benchmark's inputs).  The server only ever
   sees the encoded bytes. *)

type codec = Json | Binary

let codec_name = function Json -> "json" | Binary -> "binary"

(* Connection 0 speaks htlc-serve/v1 JSON, connection 1 htlc-serve/b1. *)
let codecs = [| Json; Binary |]

type item = {
  req : Serve.Request.t;
  wire : string;  (** The bytes written for this request. *)
  hot : bool;  (** One of the workload's repeated questions. *)
}

let encode codec (req : Serve.Request.t) =
  match codec with
  | Json -> Serve.Request.encode req ^ "\n"
  | Binary -> Serve.Binary.encode_request req

let item codec ~hot req = { req; wire = encode codec req; hot }

(* Sixteen (mu, sigma) calibrations inside the default quote grid. *)
let calibrations =
  Array.init 16 (fun i ->
      ( [| -0.003; 0.; 0.002; 0.004 |].(i mod 4),
        [| 0.06; 0.08; 0.1; 0.12 |].(i / 4) ))

let params_of_cal (mu, sigma) = Swap.Params.create ~mu ~sigma ()
let cal_params = Array.map params_of_cal calibrations
let tokens = [| "BTC"; "ETH"; "SOL"; "USDC"; "XMR" |]

let rng ~seed tags = Random.State.make (Array.append [| seed |] tags)

(* --- serve-hot ------------------------------------------------------- *)

let hot_count = 64
let cold_share = 0.1

(* The 64 repeated questions, spread over the five cached kinds.  Their
   shapes (kind, calibration, q, sweep size, token pair) are fixed; the
   seed only draws the rates, spots and sweep ranges, so seeds change
   the bytes but not the cost of answering. *)
let hot_questions ~seed =
  let st = rng ~seed [| 0x407 |] in
  Array.init hot_count (fun i ->
      let c = i mod 16 and alt = i / 5 mod 2 and alt2 = i / 10 mod 2 in
      let params = cal_params.(c) and mu, sigma = calibrations.(c) in
      let u = Random.State.float st 1. in
      let open Serve.Request in
      match i mod 5 with
      | 0 -> Cutoffs { params; p_star = 1.7 +. (0.6 *. u) }
      | 1 ->
        (* Alternate q = 0 (Eq. 31) with q > 0 (Eq. 40). *)
        let q = if alt = 0 then 0. else [| 0.25; 0.5 |].(alt2) in
        Success_rate { params; p_star = 1.7 +. (0.6 *. u); q }
      | 2 ->
        let lo = 1.6 +. (0.2 *. u) in
        Sweep
          {
            params;
            q = (if alt = 0 then 0. else 0.5);
            spec = { lo; hi = lo +. 0.6; n = (if alt2 = 0 then 9 else 17) };
          }
      | 3 -> Quote { mu; sigma; spot = 0.5 +. (3. *. u) }
      | _ ->
        let a = i / 5 mod 5 in
        let b = (a + 1 + (i / 25 mod 4)) mod 5 in
        Route { from_tok = tokens.(a); to_tok = tokens.(b); max_hops = 4 })

(* A seeded order of a fixed multiset: exactly [cold] cold slots and
   every hot question equally often (to within one). *)
let balanced_slots st ~len ~questions =
  let cold = int_of_float (cold_share *. float_of_int len) in
  let slots = Array.init len (fun j -> if j < cold then -1 else (j - cold) mod questions) in
  for i = len - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = slots.(i) in
    slots.(i) <- slots.(j);
    slots.(j) <- x
  done;
  slots

(* A spot for cold slot [j] of a [len]-long cycle that no other request
   in the cycle has. *)
let cold_spot st ~j ~len =
  0.5 +. (3. *. (float_of_int j +. Random.State.float st 1.) /. float_of_int len)

(* Connection [conn]'s request cycle of [len] positions: 90% hot
   questions, 10% one-off cold quotes.  A cycle is long enough that a
   cold quote has been evicted from the server's 1024-entry cache
   before it comes round again. *)
let hot_stream ~seed ~conn ~len =
  let hot = hot_questions ~seed in
  let st = rng ~seed [| 0x5e7; conn |] in
  let codec = codecs.(conn) in
  let slots = balanced_slots st ~len ~questions:hot_count in
  Array.mapi
    (fun j q ->
      let id = Some (Printf.sprintf "h%d-%d" conn j) in
      if q < 0 then
        let mu, sigma = calibrations.(j mod 16) in
        item codec ~hot:false
          { Serve.Request.id; body = Serve.Request.Quote { mu; sigma; spot = cold_spot st ~j ~len } }
      else item codec ~hot:true { Serve.Request.id; body = hot.(q) })
    slots

(* The untimed warm pass: every hot question once. *)
let warm_pass ~seed ~conn =
  let codec = codecs.(conn) in
  Array.mapi
    (fun i body ->
      item codec ~hot:true
        { Serve.Request.id = Some (Printf.sprintf "w%d-%d" conn i); body })
    (hot_questions ~seed)

(* --- serve-live ------------------------------------------------------ *)

type live_kind = Sr | Sr_q | Cut | Sweep_k | Quote_k

(* A fixed kind schedule per connection (the seed never changes the mix,
   only the values): 20% success_rate at q = 0, 20% at q > 0, 10%
   cutoffs, 20% sweep, 30% quote. *)
let live_pattern = [| Sr; Quote_k; Sweep_k; Sr_q; Sr; Quote_k; Cut; Sr_q; Sweep_k; Quote_k |]

(* Request [k] of connection [conn].  Params come from the sixteen
   calibrations (balanced: each block of 16 requests visits all of them
   in a seeded order), and every request carries a value no other
   request has, so none can be answered from the result cache. *)
let live_request ~seed ~conn k =
  let block = rng ~seed [| 0x11e; conn; k / 16 |] in
  let perm = Array.init 16 Fun.id in
  for i = 15 downto 1 do
    let j = Random.State.int block (i + 1) in
    let x = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- x
  done;
  let c = perm.(k mod 16) in
  let st = rng ~seed [| 0x11f; conn; k |] in
  let unique = 1e-9 *. float_of_int ((2 * k) + conn) in
  let u = Random.State.float st 1. in
  let params = cal_params.(c) and mu, sigma = calibrations.(c) in
  let p_star = 1.7 +. (0.6 *. u) +. unique in
  let body =
    let open Serve.Request in
    match live_pattern.(k mod Array.length live_pattern) with
    | Sr -> Success_rate { params; p_star; q = 0. }
    | Sr_q -> Success_rate { params; p_star; q = (if u < 0.5 then 0.25 else 0.5) }
    | Cut -> Cutoffs { params; p_star }
    | Sweep_k ->
      let lo = 1.6 +. (0.2 *. u) +. unique in
      Sweep { params; q = 0.; spec = { lo; hi = lo +. 0.6; n = 9 } }
    | Quote_k -> Quote { mu; sigma; spot = 0.5 +. (3. *. u) +. unique }
  in
  item codecs.(conn) ~hot:false
    { Serve.Request.id = Some (Printf.sprintf "l%d-%d" conn k); body }

(* --- mc-batch's served twin ------------------------------------------ *)

(* The questions a client would ask the quote server about the batch's
   own inputs (default parameters, P* = 2, Q = 0.5): the traced run of
   mc-batch replays these through the serve layers. *)
let twin_questions =
  let params = Swap.Params.defaults in
  let open Serve.Request in
  [|
    Success_rate { params; p_star = 2.; q = 0. };
    Success_rate { params; p_star = 2.; q = 0.5 };
    Cutoffs { params; p_star = 2. };
    Sweep { params; q = 0.; spec = { lo = 1.5; hi = 2.5; n = 17 } };
    Sweep { params; q = 0.5; spec = { lo = 1.5; hi = 2.5; n = 17 } };
    Quote { mu = params.Swap.Params.mu; sigma = params.Swap.Params.sigma; spot = 2. };
    Route { from_tok = "XMR"; to_tok = "USDC"; max_hops = 4 };
  |]

(* Like the hot stream: 10% one-off quotes at the batch's (mu, sigma)
   and a spot no other request has. *)
let twin_stream ~seed ~conn ~len =
  let st = rng ~seed [| 0x7a1; conn |] in
  let codec = codecs.(conn) in
  let p = Swap.Params.defaults in
  let slots = balanced_slots st ~len ~questions:(Array.length twin_questions) in
  Array.mapi
    (fun j q ->
      let id = Some (Printf.sprintf "t%d-%d" conn j) in
      if q < 0 then
        item codec ~hot:false
          {
            Serve.Request.id;
            body =
              Serve.Request.Quote
                { mu = p.Swap.Params.mu; sigma = p.Swap.Params.sigma; spot = cold_spot st ~j ~len };
          }
      else item codec ~hot:true { Serve.Request.id; body = twin_questions.(q) })
    slots

let twin_warm ~conn =
  Array.mapi
    (fun i body ->
      item codecs.(conn) ~hot:true
        { Serve.Request.id = Some (Printf.sprintf "v%d-%d" conn i); body })
    twin_questions

(* --- named properties of what was sent ------------------------------- *)

let kind_of (req : Serve.Request.t) =
  match req.body with
  | Serve.Request.Success_rate { q; _ } when q > 0. -> "success_rate_q"
  | _ -> Serve.Request.kind req

type params_key =
  | Params of Swap.Params.t
  | Calibration of float * float
  | Pair of string * string * int
  | No_params

let params_key (req : Serve.Request.t) =
  let open Serve.Request in
  match req.body with
  | Cutoffs { params; _ } | Success_rate { params; _ } | Sweep { params; _ } -> Params params
  | Quote { mu; sigma; _ } -> Calibration (mu, sigma)
  | Route { from_tok; to_tok; max_hops } -> Pair (from_tok, to_tok, max_hops)
  | Health | Stats -> No_params

type properties = {
  requests : int;
  hot_share : float;  (** Requests that repeat one of the hot questions. *)
  params_repeat_share : float;
      (** Requests whose params equal an earlier request's. *)
  kind_mix : (string * float) list;
}

let properties (items : item Seq.t) =
  let seen = Hashtbl.create 64 and kinds = Hashtbl.create 8 in
  let n = ref 0 and hot = ref 0 and repeat = ref 0 in
  Seq.iter
    (fun it ->
      incr n;
      if it.hot then incr hot;
      let pk = params_key it.req in
      if Hashtbl.mem seen pk then incr repeat else Hashtbl.add seen pk ();
      let k = kind_of it.req in
      Hashtbl.replace kinds k (1 + Option.value ~default:0 (Hashtbl.find_opt kinds k)))
    items;
  let share x = if !n = 0 then 0. else float_of_int x /. float_of_int !n in
  {
    requests = !n;
    hot_share = share !hot;
    params_repeat_share = share !repeat;
    kind_mix =
      Hashtbl.fold (fun k c acc -> (k, share c) :: acc) kinds []
      |> List.sort compare;
  }
