(* Clocks, order statistics, host tagging and the host-speed reference
   slice. Nothing here depends on the compiler: the reference slice in
   particular must stay stdlib-only, so that no change to the program
   under test can move it. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* CPU time of this process, every thread included, at microsecond
   resolution (getrusage). It is logged beside the wall-clock figures
   the metrics use. It leaves out steal and run-queue waits and adds up
   the CPU of every domain, so a wall figure that moves while this one
   stays put points at the host or at parallelism, not at the work. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ---- order statistics ------------------------------------------------ *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort compare a;
  a

(* The nearest rank of the [p] percentile among [n] samples: the
   smallest count with at least [p] of the samples at or below it. *)
let rank n p = max 1 (int_of_float (ceil ((p *. float_of_int n) -. 1e-9)))

let pct_sorted a p =
  let n = Array.length a in
  if n = 0 then nan else a.(min n (rank n p) - 1)

(* Samples strictly beyond the [p] percentile. *)
let beyond n p = n - rank n p

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* ---- host tag -------------------------------------------------------- *)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    let rec go acc =
      match input_line ic with
      | l -> go (l :: acc)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    go []

(* Aggregate steal time in clock ticks (USER_HZ, 100/s on Linux), the
   8th field of the "cpu" line of /proc/stat; None off Linux. *)
let steal_ticks () =
  match read_lines "/proc/stat" with
  | l :: _ when String.length l > 4 && String.sub l 0 4 = "cpu " -> (
    match String.split_on_char ' ' l |> List.filter (( <> ) "") with
    | _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ ->
      int_of_string_opt steal
    | _ -> None)
  | _ -> None

let nproc () = Domain.recommended_domain_count ()

(* CPU time of another, single-threaded process, in seconds, from
   /proc/PID/schedstat; 0 where that file does not exist. *)
let cpu_of_pid pid =
  match read_lines (Printf.sprintf "/proc/%d/schedstat" pid) with
  | l :: _ -> (
    match String.split_on_char ' ' l with
    | ns :: _ -> Option.fold ~none:0. ~some:(fun n -> float_of_int n *. 1e-9) (int_of_string_opt ns)
    | [] -> 0.)
  | [] -> 0.

(* Peak resident set of a process, in MiB, from /proc/PID/status. *)
let peak_rss_mb pid =
  List.find_map
    (fun l ->
      match String.split_on_char ' ' (String.map (function '\t' -> ' ' | c -> c) l)
            |> List.filter (( <> ) "") with
      | [ "VmHWM:"; kb; "kB" ] ->
        Option.map (fun k -> float_of_int k /. 1024.) (int_of_string_opt kb)
      | _ -> None)
    (read_lines (Printf.sprintf "/proc/%s/status" pid))

(* ---- host-speed reference slice --------------------------------------- *)

(* A fixed slice of stdlib work shaped like the compiler's own inner
   loops: pointer chasing through a 256 KiB permutation cycle, hash-table
   probes, string hashing, an in-place sort and a dense shortest-path
   relaxation. Host speed on a shared VM drifts by a fifth from run to
   run; timing this slice next to the measured work and dividing by it
   cancels most of that drift. The slice allocates nothing after its
   data is built, so the garbage the measured work leaves behind cannot
   slow it down. Its working set stays small: a chase through megabytes
   swings twofold with the neighbours' cache traffic, far more than the
   compiler does. It must never call into the program under test. *)
let chase =
  let n = 1 lsl 15 in
  let a = Array.init n Fun.id in
  let st = Random.State.make [| 42 |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  let next = Array.make n 0 in
  for i = 0 to n - 1 do
    next.(a.(i)) <- a.((i + 1) mod n)
  done;
  next

let table =
  let h = Hashtbl.create 8192 in
  for i = 0 to 6000 do
    Hashtbl.replace h (i * 7919) i
  done;
  h

let names = Array.init 512 (fun i -> Printf.sprintf "loop%d.unit%d.r%d" i (i * 7) (i * 13))
let keys = Array.make 4096 0
let dist = Array.make (40 * 40) 0

let slice () =
  let p = ref 0 in
  for _ = 1 to 400_000 do
    p := chase.(!p)
  done;
  let acc = ref !p in
  for i = 0 to 60_000 do
    let k = i * 7919 mod 65536 in
    if Hashtbl.mem table k then acc := !acc + Hashtbl.find table k
  done;
  for _ = 1 to 4 do
    Array.iter (fun s -> acc := !acc + Hashtbl.hash s) names
  done;
  for _ = 1 to 2 do
    for i = 0 to Array.length keys - 1 do
      keys.(i) <- i * 7907 mod 4099
    done;
    Array.sort compare keys
  done;
  let n = 40 in
  for k = 0 to (n * n) - 1 do
    dist.(k) <- (if k / n = k mod n then 0 else 1 + (k * 13 mod 29))
  done;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let via = dist.((i * n) + k) + dist.((k * n) + j) in
        if via < dist.((i * n) + j) then dist.((i * n) + j) <- via
      done
    done
  done;
  !acc + dist.(n - 1) + keys.(7)

let sink = ref 0

(* A slice runs twice and only the second run is timed: the first
   brings its data back into cache after the measured work evicted it,
   so the time reflects the host and not the footprint of the work
   around it. *)
let time_twice f () =
  sink := !sink lxor f ();
  let r, dt = time f in
  sink := !sink lxor r;
  dt

let time_slice = time_twice slice

(* A second slice for serve-suite: a thousand 64-byte round trips through
   a pipe this process holds both ends of, so only system calls, with no
   other process involved. A serve-suite request is mostly system calls
   and hand-offs between the client and the daemon, and its speed moves
   with the host's by more than the compute slice's does: over three
   sets of seven serve-suite runs on a 2 vCPU VM, correcting by this
   slice gave a median spread of 0.028 for ops_per_s against 0.084 with
   the compute slice. *)
let pipe = lazy (Unix.pipe ~cloexec:true ())
let chunk = Bytes.make 64 'x'

let syscall_slice () =
  let r, w = Lazy.force pipe in
  for _ = 1 to 1000 do
    ignore (Unix.write w chunk 0 64);
    ignore (Unix.read r chunk 0 64)
  done;
  0

let time_syscall_slice = time_twice syscall_slice

(* The slices' typical wall times on the host the benchmark was
   calibrated on (2 vCPU, OCaml 5.1.1). Corrected times are expressed at
   that host's speed: corrected = raw * nominal / measured. *)
let slice_nominal_s = 0.0077
let syscall_nominal_s = 0.00088
