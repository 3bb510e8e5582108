(* Child processes the benchmark starts — [w2cd] daemons and its own
   set-up children — and the guarantee that every one of them is stopped
   and reaped, and every socket directory removed, on every exit path:
   normal return, exception, SIGINT and SIGTERM. *)

module Service = Sp_serve.Service

let live : (int, unit) Hashtbl.t = Hashtbl.create 4
let dirs : (string, unit) Hashtbl.t = Hashtbl.create 4

let rec waitpid_noeintr flags pid =
  match Unix.waitpid flags pid with
  | r -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_noeintr flags pid

(* SIGTERM, then SIGKILL if the child has not exited within two seconds;
   returns once it is reaped. *)
let stop pid =
  if Hashtbl.mem live pid then begin
    Hashtbl.remove live pid;
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = Unix.gettimeofday () +. 2. in
    let rec wait () =
      match waitpid_noeintr [ Unix.WNOHANG ] pid with
      | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.002;
        wait ()
      | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (waitpid_noeintr [] pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    wait ()
  end

(* Reap a child that is exiting on its own. *)
let wait pid =
  if Hashtbl.mem live pid then begin
    Hashtbl.remove live pid;
    ignore (waitpid_noeintr [] pid)
  end

let remove_dir d =
  if Hashtbl.mem dirs d then begin
    Hashtbl.remove dirs d;
    (try Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d)
     with Sys_error _ -> ());
    try Sys.rmdir d with Sys_error _ -> ()
  end

let cleanup () =
  List.iter stop (Hashtbl.to_seq_keys live |> List.of_seq);
  List.iter remove_dir (Hashtbl.to_seq_keys dirs |> List.of_seq)

let () =
  at_exit cleanup;
  let on_signal code _ =
    cleanup ();
    exit code
  in
  Sys.set_signal Sys.sigint (Sys.Signal_handle (on_signal 130));
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (on_signal 143));
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let spawn ?(stdout = Unix.stdout) prog args =
  let pid = Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin stdout Unix.stderr in
  Hashtbl.replace live pid ();
  pid

(* ---- w2cd ------------------------------------------------------------ *)

type daemon = { pid : int; dir : string; sock : string }

(* Relative socket paths keep clear of the 108-byte limit on socket
   addresses, whatever the checkout's own path. *)
let socket_root = "perfbench/out"

let mkdir_p d =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go d

let exchange sock payload =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX sock);
  Service.Frame.write fd payload;
  match Service.Frame.read fd with
  | Some r -> r
  | None -> failwith "w2cd closed the connection without a response"

let ping = Service.render_request Service.Ping

(* Start [w2cd serve] at its default flags and return once it answers a
   ping. *)
let start ~w2cd ~tag =
  mkdir_p socket_root;
  let dir = Printf.sprintf "%s/s%d-%s" socket_root (Unix.getpid ()) tag in
  mkdir_p dir;
  Hashtbl.replace dirs dir ();
  let sock = dir ^ "/d.sock" in
  let pid = spawn w2cd [ "serve"; sock ] in
  let d = { pid; dir; sock } in
  let deadline = Unix.gettimeofday () +. 30. in
  let rec wait () =
    match exchange sock ping with
    | r when Service.parse_response r = Service.Ok "pong" -> ()
    | _ -> failwith "w2cd answered the ping wrongly"
    | exception (Unix.Unix_error _ | Failure _) ->
      (match waitpid_noeintr [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
        Hashtbl.remove live pid;
        failwith "w2cd exited during start-up");
      if Unix.gettimeofday () > deadline then failwith "w2cd did not start";
      Unix.sleepf 0.001;
      wait ()
  in
  wait ();
  d

let shutdown d =
  stop d.pid;
  remove_dir d.dir
