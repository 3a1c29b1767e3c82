(* Closed-loop load over the server's Unix-domain socket.  Burst mode
   drives every connection from one thread; sliding mode runs one
   blocking connection per load-generator domain.  Every response is
   compared byte for byte with the reference as it arrives (burst mode)
   or kept for comparison after the run (sliding mode). *)

let now = Obs.Monotonic.now_int_ns

type conn = {
  fd : Unix.file_descr;
  codec : Corpus.codec;
  mutable buf : Bytes.t;
  mutable lo : int;  (** Start of unconsumed bytes. *)
  mutable hi : int;  (** End of received bytes. *)
  mutable scan : int;  (** JSON: bytes before this hold no newline. *)
}

let rec write_all fd s off len =
  if len > 0 then
    match Unix.write_substring fd s off len with
    | n -> write_all fd s (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off len

let send c s = write_all c.fd s 0 (String.length s)

let connect ~socket codec =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX socket)
   with e ->
     Unix.close fd;
     raise e);
  let c = { fd; codec; buf = Bytes.create 65536; lo = 0; hi = 0; scan = 0 } in
  if codec = Corpus.Binary then send c Serve.Binary.magic;
  c

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let refill c =
  if c.hi = Bytes.length c.buf then begin
    let live = c.hi - c.lo in
    let dst =
      if c.lo = 0 then Bytes.create (2 * Bytes.length c.buf) else c.buf
    in
    Bytes.blit c.buf c.lo dst 0 live;
    c.buf <- dst;
    c.scan <- c.scan - c.lo;
    c.lo <- 0;
    c.hi <- live
  end;
  let rec rd () =
    match Unix.read c.fd c.buf c.hi (Bytes.length c.buf - c.hi) with
    | 0 -> raise End_of_file
    | n -> c.hi <- c.hi + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> rd ()
  in
  rd ()

(* The next whole response already received, as (offset, length) of
   its body in [c.buf] (JSON without its newline, binary without its
   length prefix); valid until the next call.  Never reads. *)
let parse c =
  match c.codec with
  | Corpus.Json ->
    let i = ref (max c.scan c.lo) in
    while !i < c.hi && Bytes.unsafe_get c.buf !i <> '\n' do
      incr i
    done;
    if !i < c.hi then begin
      let off = c.lo in
      c.lo <- !i + 1;
      c.scan <- c.lo;
      Some (off, !i - off)
    end
    else begin
      c.scan <- !i;
      None
    end
  | Corpus.Binary ->
    if c.hi - c.lo < 4 then None
    else
      let n = Int32.to_int (Bytes.get_int32_be c.buf c.lo) land 0xffffffff in
      if c.hi - c.lo < 4 + n then None
      else begin
        let off = c.lo + 4 in
        c.lo <- off + n;
        Some (off, n)
      end

(* As [parse], reading until a whole response is in.  Blocks; raises
   [End_of_file] on hang-up. *)
let rec next c =
  match parse c with
  | Some r -> r
  | None ->
    refill c;
    next c

let equal_at c (off, len) s =
  len = String.length s
  &&
  let rec go i =
    i >= len || (Bytes.unsafe_get c.buf (off + i) = String.unsafe_get s i && go (i + 1))
  in
  go 0

let take c (off, len) = Bytes.sub_string c.buf off len

(* One request, one response (warm-up, health, unloaded round trips). *)
let call c wire =
  send c wire;
  take c (next c)

type result = {
  sent : int;
  answered : int;
  mismatched : int;
  latencies_ms : float array;
  first_ns : int;
  last_ns : int;
  responses : (int * string) list;
      (** Sliding mode: (request index, response) for every answer. *)
  error : string option;  (** Why the connection stopped early. *)
}

let describe = function
  | End_of_file -> "connection closed by the server"
  | Unix.Unix_error (e, fn, _) -> Printf.sprintf "%s: %s" fn (Unix.error_message e)
  | e -> Printexc.to_string e

(* Burst mode: each connection writes a whole window of requests, then
   reads its responses; its next window goes out when its last answer is
   in.  One thread drives every connection, waiting in [select] for
   whichever has data, so the generator adds one runnable thread and one
   domain to the host however many connections it keeps.
   [windows.(w)] is the concatenated wire bytes of window [w]; windows
   cycle.  A request's latency runs from its window's write to its
   response.  One result per burst, in order. *)
type burst = {
  codec : Corpus.codec;
  windows : string array;
  expected : string array;  (** Per request, window after window. *)
  trace : Spans.t option;
}

type state = {
  b : burst;
  mutable conn : conn option;  (** [None] once done or failed. *)
  mutable w : int;  (** Current window. *)
  mutable got : int;  (** Answers read of the current window. *)
  mutable t0 : int;  (** Write time of the current window. *)
  mutable span : int;
  lat : Stats.Buf.t;
  mutable sent : int;
  mutable answered : int;
  mutable mismatched : int;
  mutable last_ns : int;
  mutable error : string option;
}

let run_bursts ~socket ~window ~deadline_ns (bursts : burst array) =
  let first_ns = now () in
  let st =
    Array.map
      (fun b ->
        {
          b; conn = None; w = 0; got = 0; t0 = 0; span = -1; lat = Stats.Buf.create (); sent = 0;
          answered = 0; mismatched = 0; last_ns = first_ns; error = None;
        })
      bursts
  in
  let finish s =
    Option.iter close s.conn;
    s.conn <- None
  in
  let fail s e =
    s.error <- Some (describe e);
    finish s
  in
  let write s c =
    let t = now () in
    s.t0 <- t;
    s.got <- 0;
    (match s.b.trace with
    | Some sp -> s.span <- Spans.add sp ~name:"loadgen.window" ~parent:Spans.no_parent ~start:t ~stop:t
    | None -> ());
    send c s.b.windows.(s.w);
    s.sent <- s.sent + window
  in
  (* Every whole answer in the buffer; at the window's end, the next
     window or, past the deadline, the end of the connection. *)
  let rec drain s c =
    match parse c with
    | None -> ()
    | Some r ->
      let t = now () in
      Stats.Buf.add s.lat (float_of_int (t - s.t0) *. 1e-6);
      s.answered <- s.answered + 1;
      if not (equal_at c r s.b.expected.((s.w * window) + s.got)) then s.mismatched <- s.mismatched + 1;
      (match s.b.trace with
      | Some sp -> ignore (Spans.add sp ~name:"loadgen.request" ~parent:s.span ~start:s.t0 ~stop:t)
      | None -> ());
      s.got <- s.got + 1;
      if s.got < window then drain s c
      else begin
        s.last_ns <- now ();
        (match s.b.trace with Some sp -> Spans.set_stop sp s.span s.last_ns | None -> ());
        s.w <- (s.w + 1) mod Array.length s.b.windows;
        if s.last_ns < deadline_ns then write s c else finish s
      end
  in
  Array.iter
    (fun s ->
      match connect ~socket s.b.codec with
      | c ->
        s.conn <- Some c;
        (try write s c with e -> fail s e)
      | exception e -> fail s e)
    st;
  let open_fds () = Array.to_list st |> List.filter_map (fun s -> Option.map (fun c -> c.fd) s.conn) in
  let rec loop () =
    match open_fds () with
    | [] -> ()
    | fds ->
      let ready =
        match Unix.select fds [] [] (-1.) with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      Array.iter
        (fun s ->
          match s.conn with
          | Some c when List.mem c.fd ready -> (
            try
              refill c;
              drain s c
            with e -> fail s e)
          | _ -> ())
        st;
      loop ()
  in
  loop ();
  Array.to_list st
  |> List.map (fun s : result ->
         {
           sent = s.sent;
           answered = s.answered;
           mismatched = s.mismatched;
           latencies_ms = Stats.Buf.to_array s.lat;
           first_ns;
           last_ns = s.last_ns;
           responses = [];
           error = s.error;
         })

(* Sliding mode: keep [outstanding] requests in flight, writing the
   next one as each answer arrives, as independent callers would.  A
   request's latency runs from its own write to its response.  After
   the deadline no new request is written and the in-flight ones are
   drained. *)
let run_sliding ?trace ~socket ~codec ~gen ~outstanding ~deadline_ns () =
  let lat = Stats.Buf.create () in
  let sent = ref 0 and answered = ref 0 in
  let first_ns = now () in
  let last_ns = ref first_ns and error = ref None and responses = ref [] in
  (try
     let c = connect ~socket codec in
     Fun.protect
       ~finally:(fun () -> close c)
       (fun () ->
         let inflight = Queue.create () in
         let write () =
           let k = !sent in
           let it : Corpus.item = gen k in
           let t = now () in
           send c it.wire;
           Queue.push (k, t) inflight;
           incr sent
         in
         for _ = 1 to outstanding do
           write ()
         done;
         while not (Queue.is_empty inflight) do
           let r = next c in
           let t = now () in
           let k, t0 = Queue.pop inflight in
           Stats.Buf.add lat (float_of_int (t - t0) *. 1e-6);
           incr answered;
           responses := (k, take c r) :: !responses;
           (match trace with
           | Some sp -> ignore (Spans.add sp ~name:"loadgen.request" ~parent:Spans.no_parent ~start:t0 ~stop:t)
           | None -> ());
           last_ns := t;
           if t < deadline_ns then write ()
         done)
   with e -> error := Some (describe e));
  {
    sent = !sent;
    answered = !answered;
    mismatched = 0;
    latencies_ms = Stats.Buf.to_array lat;
    first_ns;
    last_ns = !last_ns;
    responses = List.rev !responses;
    error = !error;
  }

(* Run [f 0] on the calling domain and [f 1] .. [f (n-1)] on their own. *)
let parallel n f =
  let others = List.init (n - 1) (fun i -> Domain.spawn (fun () -> f (i + 1))) in
  let first = f 0 in
  first :: List.map Domain.join others
