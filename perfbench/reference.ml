(* Reference answers, computed outside every timed window by
   [swap_cli serve] in pipe mode at its defaults: each request line is
   answered by a direct [Engine.handle] call on a zero-worker engine
   with the same configuration as the socket server under test.  The
   requests go through files, so a child never blocks on a full pipe. *)

let json_line (req : Serve.Request.t) = Serve.Request.encode req ^ "\n"

let compute ~exe ~workdir ?(parallel = 1) (reqs : Serve.Request.t array) =
  let n = Array.length reqs in
  let parts = max 1 (min parallel n) in
  let file p ext = Filename.concat workdir (Printf.sprintf "reference%d.%s" p ext) in
  let pids =
    List.init parts (fun p ->
        let oc = open_out_bin (file p "in") in
        Array.iteri (fun i r -> if i mod parts = p then output_string oc (json_line r)) reqs;
        close_out oc;
        Proc.spawn ~stdin:(file p "in") ~stdout:(file p "out") ~stderr:(file p "log") exe
          [ "serve" ])
  in
  List.iteri
    (fun p pid ->
      match Proc.wait_exit pid with
      | Unix.WEXITED 0 -> ()
      | _ -> failwith (Printf.sprintf "reference server failed (see %s)" (file p "log")))
    pids;
  let answers =
    Array.init parts (fun p ->
        let lines = String.split_on_char '\n' (Proc.read_file (file p "out")) in
        Array.of_list (List.filter (fun l -> l <> "") lines))
  in
  Array.init n (fun i ->
      let part = answers.(i mod parts) and j = i / parts in
      if j >= Array.length part then failwith "reference server answered too few lines";
      part.(j))

(* The corpus expects [ok] for every request it sends. *)
let is_ok line =
  let pat = "\"status\":\"ok\"" in
  let n = String.length line and m = String.length pat in
  let rec go i = i + m <= n && (String.sub line i m = pat || go (i + 1)) in
  go 0
