(* The timed phase: whole passes of operations in seeded order, with the
   host-speed reference slice interleaved between operations. *)

(* How often the reference slice runs, in seconds of measured work. At
   about 16 ms a compute slice (warm-up run included) this costs 6% of
   the run; a syscall slice costs far less. *)
let slice_every = 0.25

(* Operations are timed twice: in wall seconds, which the metrics use,
   and in CPU seconds, which are logged beside them. *)
type t = {
  per_pass : int;          (* operations in one pass *)
  idx : int array;         (* which operation each sample is *)
  at : float array;        (* when each operation started *)
  lat : float array;       (* wall seconds per operation, whole passes only *)
  cpu : float array;       (* CPU seconds per operation *)
  slices : float array;      (* compute slice wall times, in the order they ran *)
  sys_slices : float array;  (* syscall slice wall times, taken with them *)
  slice_at : float array;    (* when each pair of slices ended *)
}

(* Run whole passes until the next one would overrun [seconds], but at
   least [min_passes] (enough for the tail percentiles to have ten
   samples beyond them). [op] is timed; [check] runs outside the timing.
   [other_cpu] reads the CPU time of a process the operation hands work
   to (the daemon), so an operation's logged CPU time is what it cost on
   both sides. *)
let run ?(other_cpu = fun () -> 0.) ~seconds ~min_passes ~order ~op ~check () =
  let slices = ref [] and sys_slices = ref [] and slice_at = ref [] and last = ref 0. in
  let take () =
    slices := Host.time_slice () :: !slices;
    sys_slices := Host.time_syscall_slice () :: !sys_slices;
    last := Host.now ();
    slice_at := !last :: !slice_at
  in
  take ();
  let idx = ref [] and at = ref [] and lat = ref [] and cpu = ref [] and passes = ref 0 and per_pass = ref 0 in
  let t0 = Host.now () and last_pass = ref 0. in
  while !passes < min_passes || Host.now () -. t0 +. !last_pass <= seconds do
    let p0 = Host.now () in
    let ord = order () in
    per_pass := Array.length ord;
    Array.iter
      (fun i ->
        if Host.now () -. !last > slice_every then take ();
        let o0 = other_cpu () in
        let c0 = Host.cpu () and w0 = Host.now () in
        let r = op i in
        let w1 = Host.now () and c1 = Host.cpu () in
        let o1 = other_cpu () in
        idx := i :: !idx;
        at := w0 :: !at;
        lat := (w1 -. w0) :: !lat;
        cpu := (c1 -. c0 +. (o1 -. o0)) :: !cpu;
        check i r)
      ord;
    incr passes;
    last_pass := Host.now () -. p0
  done;
  take ();
  {
    per_pass = !per_pass;
    idx = Array.of_list (List.rev !idx);
    at = Array.of_list (List.rev !at);
    lat = Array.of_list (List.rev !lat);
    cpu = Array.of_list (List.rev !cpu);
    slices = Array.of_list (List.rev !slices);
    sys_slices = Array.of_list (List.rev !sys_slices);
    slice_at = Array.of_list (List.rev !slice_at);
  }

(* Samples needed for the [p] percentile to have ten beyond it. *)
let min_samples p = int_of_float (ceil (10. /. (1. -. p) -. 1e-9))

(* ---- host-speed correction -------------------------------------------- *)

(* Corrected times are raw times multiplied by the nominal slice time
   over the typical slice time. The typical time is the mean of the
   middle half of the slices: it ignores the slow tail from interrupts
   and steal, and unlike a median it moves smoothly when the host spends
   part of the time at another speed. *)
let run_factor ?(nominal = Host.slice_nominal_s) slices =
  let a = Host.sorted slices in
  let n = Array.length a in
  let lo = n / 4 and hi = max (n / 4 + 1) (n - (n / 4)) in
  let s = ref 0. in
  for i = lo to hi - 1 do
    s := !s +. a.(i)
  done;
  nominal /. (!s /. float_of_int (hi - lo))

(* Host speed on a shared VM moves within seconds, so each operation is
   corrected by the slices taken within [local_window] seconds of its
   start (about eight), not by the whole run's. Re-scoring six
   exact-unroll2 runs on a 2 vCPU VM this way roughly halved the
   run-to-run spread of every timing against one factor per run. *)
let local_window = 1.0

let factor_source ~syscalls (t : t) =
  if syscalls then (t.sys_slices, Host.syscall_nominal_s) else (t.slices, Host.slice_nominal_s)

let local_factors ?(syscalls = false) (t : t) =
  let slices, nominal = factor_source ~syscalls t in
  let run_factor = run_factor ~nominal in
  let whole = run_factor slices in
  let n = Array.length t.slice_at in
  (* first slice at or after [x] *)
  let find x =
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if t.slice_at.(mid) < x then go (mid + 1) hi else go lo mid
    in
    go 0 n
  in
  Array.map
    (fun a ->
      let lo = find (a -. local_window) and hi = find (a +. local_window) in
      if hi - lo < 3 then whole else run_factor (Array.sub slices lo (hi - lo)))
    t.at

type summary = {
  ops_per_s : float;
  p50 : float;  (* seconds *)
  p90 : float;
  p99 : float;
  samples : int;
  passes : int;
}

(* Throughput is the inverse of the median pass: each operation's median
   time over the passes, summed. A transient stall then moves one sample
   of one operation rather than a whole pass. *)
let summarize ?(cpu = false) ?factors (t : t) =
  let raw = if cpu then t.cpu else t.lat in
  let lat = match factors with None -> raw | Some f -> Array.map2 ( *. ) raw f in
  let per_op = Hashtbl.create t.per_pass in
  Array.iteri
    (fun k x ->
      Hashtbl.replace per_op t.idx.(k)
        (x :: Option.value ~default:[] (Hashtbl.find_opt per_op t.idx.(k))))
    lat;
  let median_pass =
    Hashtbl.fold (fun _ xs acc -> acc +. Host.median (Array.of_list xs)) per_op 0.
  in
  let sorted = Host.sorted lat in
  {
    ops_per_s = float_of_int t.per_pass /. median_pass;
    p50 = Host.pct_sorted sorted 0.50;
    p90 = Host.pct_sorted sorted 0.90;
    p99 = Host.pct_sorted sorted 0.99;
    samples = Array.length lat;
    passes = Array.length lat / t.per_pass;
  }
