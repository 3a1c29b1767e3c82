(* Child processes and what /proc says about them.  Every child the
   benchmark starts is registered here and killed at exit if it is
   still running, so no run leaves a server behind. *)

let live : int list ref = ref []

let forget pid = live := List.filter (( <> ) pid) !live

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ();
  forget pid

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid)
    !live

let () = at_exit kill_all

(* A child started some other way, killed at exit like the rest. *)
let adopt pid = live := pid :: !live

let spawn ?(stdin = "/dev/null") ~stdout ~stderr prog args =
  let open_in_fd p = Unix.openfile p [ Unix.O_RDONLY ] 0 in
  let open_out_fd p =
    Unix.openfile p [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let i = open_in_fd stdin in
  let o = open_out_fd stdout in
  let e = if stderr = stdout then o else open_out_fd stderr in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close i;
        Unix.close o;
        if e != o then Unix.close e)
      (fun () -> Unix.create_process prog (Array.of_list (prog :: args)) i o e)
  in
  live := pid :: !live;
  pid

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ ->
    forget pid;
    true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(* SIGTERM, then SIGKILL if the process has not gone after [grace_s]. *)
let stop ?(grace_s = 15.) pid =
  if List.mem pid !live then begin
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = Unix.gettimeofday () +. grace_s in
    let rec wait () =
      if exited pid then ()
      else if Unix.gettimeofday () > deadline then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        reap pid
      end
      else begin
        Unix.sleepf 0.01;
        wait ()
      end
    in
    wait ()
  end

let wait_exit pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _, status ->
      forget pid;
      status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* Read to end of file in chunks: /proc files report length 0. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let b = Buffer.create 4096 and chunk = Bytes.create 65536 in
      let rec go () =
        match input ic chunk 0 (Bytes.length chunk) with
        | 0 -> Buffer.contents b
        | n ->
          Buffer.add_subbytes b chunk 0 n;
          go ()
      in
      go ())

(* [VmHWM] (peak resident set) in KiB, from /proc/<pid>/status. *)
let vm_hwm_kib pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
        | _ -> go ()
        | exception End_of_file -> failwith ("no VmHWM in " ^ path)
      in
      go ())

(* utime + stime of [pid] in clock ticks (fields 14 and 15 of
   /proc/<pid>/stat, counted after the parenthesised command name). *)
let cpu_ticks pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  (* [rest] starts at field 3 (state). *)
  int_of_string fields.(14 - 3) + int_of_string fields.(15 - 3)

(* Linux reports /proc CPU times in USER_HZ ticks, 100 per second on
   every architecture the kernel supports. *)
let ticks_per_s = 100.

(* Steal and total ticks of all CPUs, from the first line of /proc/stat:
   steal is time the hypervisor ran something else while this guest
   had work. *)
let host_ticks () =
  match String.split_on_char ' ' (List.hd (String.split_on_char '\n' (read_file "/proc/stat"))) with
  | "cpu" :: fields ->
    let t = List.filter_map int_of_string_opt fields in
    (List.nth t 7, List.fold_left ( + ) 0 t)
  | _ -> failwith "unexpected /proc/stat"

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let nproc () = Domain.recommended_domain_count ()

(* First line of a command's output, or [None] when it cannot run. *)
let command_line ~dir prog args =
  let out = Filename.concat dir "command.out" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      match spawn ~stdout:out ~stderr:"/dev/null" prog args with
      | pid -> (
        match wait_exit pid with
        | Unix.WEXITED 0 -> (
          match String.split_on_char '\n' (read_file out) with
          | l :: _ when l <> "" -> Some l
          | _ -> None)
        | _ -> None)
      | exception Unix.Unix_error _ -> None)

(* A fixed integer-and-float loop that uses no code of the repository:
   its time per iteration shows how fast the host ran this run, so runs
   made minutes apart can be read against each other. *)
let host_loop_ns () =
  let n = 5_000_000 in
  let once () =
    let t0 = Obs.Monotonic.now_int_ns () in
    let x = ref 88172645463325252 and acc = ref 0. in
    for _ = 1 to n do
      x := !x lxor (!x lsl 13);
      x := !x lxor (!x lsr 7);
      x := !x lxor (!x lsl 17);
      acc := (!acc *. 0.999) +. float_of_int (!x land 1023)
    done;
    ignore (Sys.opaque_identity !acc);
    float_of_int (Obs.Monotonic.now_int_ns () - t0) /. float_of_int n
  in
  Stats.median (Array.init 3 (fun _ -> once ()))
