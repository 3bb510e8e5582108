(* perfbench — the repository benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Run through perfbench/run.py from the root of a checkout, which builds
   this executable and w2cd first. The last line of standard output is
   the JSON result; the line before it carries the raw figures, the
   host-speed correction factors, the sample counts, the self-test
   counts and the host tag.
   See perfbench/README.md. *)

module C = Work.C
module Service = Work.Service

let workloads = [ "serve-suite"; "campaign"; "exact-unroll2" ]

(* The in-process workloads set up this many times, each in a fresh
   child process; serve-suite starts this many daemons. *)
let setup_reps = function "serve-suite" -> 9 | "exact-unroll2" -> 5 | _ -> 3

type outcome = {
  setup_wall : float array;    (* wall seconds, one per set-up *)
  setup_cpu : float array;     (* CPU seconds, one per set-up *)
  setup_factor : float array;  (* host-speed correction of each set-up *)
  rss : float array;           (* MiB after each set-up *)
  timed : Measure.t;
  tally : Work.tally;
  quality : Work.quality;
}

let min_passes ~per_pass =
  (Measure.min_samples 0.99 + per_pass - 1) / per_pass

(* ---- reference pass ---------------------------------------------------- *)

(* Compile every program once, untimed, and put the result through the
   full checks. [certify] gives the certified compile, if any, that
   [decided_frac] counts; [agrees] any further condition the compile
   must meet. Returns per program whether it passed, and the digest of
   its compile. *)
let reference ?(agrees = fun _ _ -> true) ~compile ~certify (progs : Work.prog array) =
  let q = Work.quality () in
  let per =
    Array.mapi
      (fun i (p : Work.prog) ->
        match compile p with
        | exception _ -> (false, "")
        | ir, r -> (
          (match certify i p r with
          | Some rc -> Work.add_certs q rc
          | None -> ()
          | exception _ -> ());
          match Work.check_compile p ir r with
          | Ok st when agrees i r ->
            Work.add_result q r st;
            (true, Work.result_digest r)
          | Ok _ | Error _ -> (false, "")))
      progs
  in
  (Array.map fst per, Array.map snd per, q)

(* ---- set-up children (in-process workloads) ----------------------------- *)

(* The child side: one pass in seeded order with the reference slice
   interleaved, and four slices on each side of it so a short pass still
   gets a steady factor. Then READY with the peak RSS, the pass's
   correction factor, the CPU seconds since exec and the wall seconds the
   slices and digests took, then every operation's digest. Each digest is taken
   right after its operation, so no output is kept alive into the RSS
   reading; the slices and digests are taken out of the set-up time. *)
let setup_child ~workload ~seed =
  let n =
    if workload = "campaign" then Work.campaign_population
    else Array.length Work.suite
  in
  let order = Work.orders ~seed n () in
  let slices = ref [] and spent = ref 0. and spent_cpu = ref 0. in
  let aside f =
    let t0 = Host.now () and c0 = Host.cpu () in
    let r = f () in
    spent := !spent +. (Host.now () -. t0);
    spent_cpu := !spent_cpu +. (Host.cpu () -. c0);
    r
  in
  let last = ref 0. in
  let take k =
    aside (fun () -> for _ = 1 to k do slices := Host.time_slice () :: !slices done);
    last := Host.now ()
  in
  take 4;
  let digests =
    Array.map
      (fun i ->
        if Host.now () -. !last > Measure.slice_every then take 1;
        match workload with
        | "campaign" ->
          let s = Work.campaign_op i in
          aside (fun () ->
              Work.summary_digest s ^ if Work.campaign_passed s then "" else "!")
        | _ ->
          let r = snd (Work.exact_op Work.suite.(i)) in
          aside (fun () -> Work.result_digest r))
      order
  in
  take 4;
  Printf.printf "READY %.3f %.6f %.6f %.6f\n%!"
    (Option.value ~default:0. (Host.peak_rss_mb "self"))
    (Measure.run_factor (Array.of_list !slices))
    (Host.cpu () -. !spent_cpu)
    !spent;
  Array.iteri (fun k i -> Printf.printf "%d %s\n" i digests.(k)) order;
  print_string "END\n"

(* The parent side: time from spawn to READY, read the digests back.
   The child's own figures come first on the READY line. *)
let run_setup_child ~workload ~seed n =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = Host.now () in
  let pid =
    Procs.spawn ~stdout:wr Sys.executable_name
      [ "--setup-child"; "--workload"; workload; "--seed"; string_of_int seed ]
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  Fun.protect ~finally:(fun () -> close_in_noerr ic; Procs.stop pid) @@ fun () ->
  let line () = try input_line ic with End_of_file -> failwith "set-up child died" in
  let rss, factor, cpu, spent =
    match String.split_on_char ' ' (line ()) |> List.tl |> List.map float_of_string_opt with
    | [ Some r; Some f; Some c; Some sp ] -> (r, f, c, sp)
    | _ | (exception _) -> failwith "set-up child: bad READY line"
  in
  let wall = Host.now () -. t0 -. spent in
  let digests = Array.make n "" in
  let rec read () =
    match String.split_on_char ' ' (line ()) with
    | [ "END" ] -> ()
    | [ i; d ] ->
      digests.(int_of_string i) <- d;
      read ()
    | _ -> failwith "set-up child: bad digest line"
  in
  read ();
  Procs.wait pid;
  ((cpu, wall, factor, rss), digests)

(* ---- workloads ------------------------------------------------------- *)

let in_process ~workload ~seed ~seconds =
  let camp = workload = "campaign" in
  let progs =
    if camp then Array.init Work.campaign_population Work.campaign_prog
    else Work.suite
  in
  let n = Array.length progs in
  let tally = Work.tally () in
  let sound, digests, quality =
    if camp then
      reference ~compile:Work.default_compile
        ~certify:(fun i p _ ->
          (* the seeds the campaign's own opt-diverge oracle samples *)
          if i mod Work.Campaign.default.Work.Campaign.opt_every = 0 then
            Some (C.program ~config:Work.exact_config Work.machine
                    (fst (Work.default_compile p)))
          else None)
        progs
    else reference ~compile:Work.exact_op ~certify:(fun _ _ r -> Some r) progs
  in
  let reps = setup_reps workload in
  let runs = Array.init reps (fun _ -> run_setup_child ~workload ~seed n) in
  (* The first child's digests are the reference for every later
     operation. Every other child must reproduce them, and for
     exact-unroll2 so must the in-process reference compile. A campaign
     child marks a seed whose summary did not pass with a trailing "!". *)
  let _, ref_digests = runs.(0) in
  let sound =
    Array.mapi
      (fun i s ->
        s && String.length ref_digests.(i) = 32
        && (camp || ref_digests.(i) = digests.(i)))
      sound
  in
  Array.iter
    (fun (_, ds) ->
      Array.iteri (fun i d -> Work.count tally (sound.(i) && d = ref_digests.(i))) ds)
    runs;
  let rf = { Work.digests = ref_digests; sound } in
  let order = Work.orders ~seed:(seed + 1) n in
  let timed =
    if camp then
      Measure.run ~seconds ~min_passes:(min_passes ~per_pass:n) ~order
        ~op:Work.campaign_op
        ~check:(fun i s -> Work.count tally (Work.campaign_ok rf i s))
        ()
    else
      Measure.run ~seconds ~min_passes:(min_passes ~per_pass:n) ~order
        ~op:(fun i -> Work.exact_op progs.(i))
        ~check:(fun i r -> Work.count tally (Work.exact_ok rf i r))
        ()
  in
  {
    setup_wall = Array.map (fun ((_, w, _, _), _) -> w) runs;
    setup_cpu = Array.map (fun ((c, _, _, _), _) -> c) runs;
    setup_factor = Array.map (fun ((_, _, f, _), _) -> f) runs;
    rss = Array.map (fun ((_, _, _, r), _) -> r) runs;
    timed;
    tally;
    quality;
  }

(* w2cd from the same build as this executable *)
let w2cd = Filename.concat (Filename.dirname Sys.executable_name) "../bin/w2cd.exe"

let serve_suite ~seed ~seconds =
  let progs = Work.suite in
  let n = Array.length progs in
  let tally = Work.tally () in
  (* the reference responses: an uncached, telemetry-off service *)
  let uncached = Service.create ~cache_capacity:0 ~telemetry:false () in
  let digests =
    Array.map
      (fun (p : Work.prog) ->
        Service.render_response
          (Service.handle uncached
             (Service.Compile { machine = "warp"; inject = None; trace = None; source = p.Work.src })))
      progs
  in
  Service.close uncached;
  (* each reference response must serve the code of the checked
     in-process compile, so the quality figures are those of the code
     the daemon serves; the daemon runs no certifier, so [decided_frac]
     is the certifier's verdict on that same code *)
  let sound, _, quality =
    reference ~compile:Work.default_compile
      ~agrees:(fun i r -> Work.response_matches digests.(i) r)
      ~certify:(fun _ p _ ->
        Some (C.program ~config:Work.exact_config Work.machine (fst (Work.default_compile p))))
      progs
  in
  let rf = { Work.digests; sound } in
  let requests = Array.map Work.compile_request progs in
  let order = Work.orders ~seed n in
  let reps = setup_reps "serve-suite" in
  let daemon = ref None in
  (* each set-up is corrected by the slices taken just before and after it *)
  let setups =
    Array.init reps (fun k ->
        Option.iter Procs.shutdown !daemon;
        let before = Array.init 2 (fun _ -> Host.time_slice ()) in
        let ord = order () in
        let t0 = Host.now () and c0 = Host.cpu () in
        let d = Procs.start ~w2cd ~tag:(string_of_int k) in
        let resps = Array.map (fun i -> Procs.exchange d.Procs.sock requests.(i)) ord in
        let wall = Host.now () -. t0 and cpu = Host.cpu () -. c0 +. Host.cpu_of_pid d.Procs.pid in
        let after = Array.init 2 (fun _ -> Host.time_slice ()) in
        daemon := Some d;
        Array.iteri (fun k i -> Work.count tally (Work.serve_ok rf i resps.(k))) ord;
        let rss = Option.value ~default:0. (Host.peak_rss_mb (string_of_int d.Procs.pid)) in
        (wall, cpu, Measure.run_factor (Array.append before after), rss))
  in
  let d = Option.get !daemon in
  Fun.protect ~finally:(fun () -> Procs.shutdown d) @@ fun () ->
  let timed =
    Measure.run ~seconds ~min_passes:(min_passes ~per_pass:n) ~order
      ~other_cpu:(fun () -> Host.cpu_of_pid d.Procs.pid)
      ~op:(fun i -> Procs.exchange d.Procs.sock requests.(i))
      ~check:(fun i r -> Work.count tally (Work.serve_ok rf i r))
      ()
  in
  {
    setup_wall = Array.map (fun (w, _, _, _) -> w) setups;
    setup_cpu = Array.map (fun (_, c, _, _) -> c) setups;
    setup_factor = Array.map (fun (_, _, f, _) -> f) setups;
    rss = Array.map (fun (_, _, _, r) -> r) setups;
    timed;
    tally;
    quality;
  }

(* ---- output -------------------------------------------------------------- *)

let untraced ~workload ~seed ~seconds ~steal0 ~selftest =
  let o =
    if workload = "serve-suite" then serve_suite ~seed ~seconds
    else in_process ~workload ~seed ~seconds
  in
  (* serve-suite's wall timings are corrected by the syscall slice, which
     its requests move with; every other timing by the compute slice *)
  let serve = workload = "serve-suite" in
  let factors = Measure.local_factors ~syscalls:serve o.timed in
  let compute_factors = Measure.local_factors o.timed in
  let cor = Measure.summarize ~factors o.timed in
  (* serve-suite's p99 is taken from the CPU both processes spent on the
     request. Its requests take about a millisecond, so the few that a
     hypervisor steal lands in make up the wall-clock tail: over seven
     runs with 0.4 to 6.5 s of steal each, the wall p99 read 2.2 to
     5.8 ms and followed the steal, while the CPU p99 read 2.2 to 2.5 ms.
     The other timings keep to wall time, which steal barely moves. *)
  let p99 =
    if serve then (Measure.summarize ~cpu:true ~factors:compute_factors o.timed).Measure.p99
    else cor.Measure.p99
  in
  let run_factor syscalls =
    let slices, nominal = Measure.factor_source ~syscalls o.timed in
    Measure.run_factor ~nominal slices
  in
  let slices_ms a =
    Printf.sprintf "{\"n\": %d, \"min\": %.3f, \"median\": %.3f, \"max\": %.3f}" (Array.length a)
      (1e3 *. Array.fold_left min infinity a)
      (1e3 *. Host.median a)
      (1e3 *. Array.fold_left max 0. a)
  in
  let raw = Measure.summarize o.timed in
  let cpu = Measure.summarize ~cpu:true o.timed in
  let setup = Host.median (Array.map2 ( *. ) o.setup_wall o.setup_factor) in
  let q = o.quality in
  let t = o.tally in
  let pass_frac =
    float_of_int (t.Work.attempted - t.Work.failed) /. float_of_int (max 1 t.Work.attempted)
  in
  let ms =
    [
      ("setup_s", "s", setup);
      ("ops_per_s", "1/s", cor.Measure.ops_per_s);
      ("op_ms_p50", "ms", cor.Measure.p50 *. 1e3);
      ("op_ms_p90", "ms", cor.Measure.p90 *. 1e3);
      ("op_ms_p99", "ms", p99 *. 1e3);
      ("pass_frac", "ratio", pass_frac);
      ("peak_rss_mb", "MiB", Host.median o.rss);
      ("code_words", "count", float_of_int q.Work.code_words);
      ("ii_sum", "count", float_of_int q.Work.ii_sum);
      ("sim_cycles", "count", float_of_int q.Work.sim_cycles);
      ("decided_frac", "ratio", Work.decided_frac q);
    ]
  in
  let fl a = "[" ^ String.concat ", " (Array.to_list (Array.map (Printf.sprintf "%.6f") a)) ^ "]" in
  Printf.printf
    "{\"perfbench\": {\"workload\": %S, \"seed\": %d, \"host\": %s, \
     \"run_factor\": %.4f, \"local_factor\": {\"min\": %.4f, \"median\": %.4f, \"max\": %.4f}, \
     \"run_factors\": {\"compute\": %.4f, \"syscall\": %.4f}, \
     \"slices_ms\": {\"compute\": %s, \"syscall\": %s}, \
     \"raw_wall\": {\"ops_per_s\": %.3f, \"op_ms_p50\": %.4f, \"op_ms_p90\": %.4f, \"op_ms_p99\": %.4f}, \
     \"raw_cpu\": {\"ops_per_s\": %.3f, \"op_ms_p50\": %.4f, \"op_ms_p90\": %.4f, \"op_ms_p99\": %.4f}, \
     \"setups\": {\"wall_s\": %s, \"cpu_s\": %s, \"factor\": %s, \"rss_mb\": %s}, \
     \"samples\": {\"ops\": %d, \"passes\": %d, \"per_pass\": %d, \"beyond_p90\": %d, \"beyond_p99\": %d, \"setups\": %d}, \
     \"certified_loops\": %d, \"selftest\": %s}}\n"
    workload seed (Report.host_json ~steal0) (run_factor serve)
    (Array.fold_left min infinity factors) (Host.median factors)
    (Array.fold_left max 0. factors) (run_factor false) (run_factor true)
    (slices_ms o.timed.Measure.slices) (slices_ms o.timed.Measure.sys_slices)
    raw.Measure.ops_per_s (raw.Measure.p50 *. 1e3) (raw.Measure.p90 *. 1e3)
    (raw.Measure.p99 *. 1e3) cpu.Measure.ops_per_s (cpu.Measure.p50 *. 1e3)
    (cpu.Measure.p90 *. 1e3) (cpu.Measure.p99 *. 1e3) (fl o.setup_wall)
    (fl o.setup_cpu) (fl o.setup_factor) (fl o.rss)
    cor.Measure.samples cor.Measure.passes o.timed.Measure.per_pass
    (Host.beyond cor.Measure.samples 0.90)
    (Host.beyond cor.Measure.samples 0.99)
    (Array.length o.setup_wall) q.Work.certified selftest;
  let correct = t.Work.failed = 0 && t.Work.attempted > 0 in
  Report.result_line ~correct t ms;
  if not correct then exit 1

(* ---- command line ------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let child = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME serve-suite | campaign | exact-unroll2");
      ("--seed", Arg.Set_int seed, "N seed for the operation order");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or traced per-layer run");
      ("--setup-child", Arg.Set child, " (internal) one set-up pass");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !child then setup_child ~workload:!workload ~seed:!seed
  else begin
    let clean, doctored = Work.selftest () in
    (* only the doctored outputs gate the run: a clean output that fails
       is a fault in the program, which the run itself reports *)
    if doctored.Work.failed < doctored.Work.attempted then begin
      prerr_endline "perfbench: the output checks failed their must-fire self-test";
      exit 3
    end;
    if not (List.mem !workload workloads) then begin
      Printf.eprintf "perfbench: unknown workload %S (want one of: %s)\n" !workload
        (String.concat ", " workloads);
      exit 2
    end;
    let selftest = Report.selftest_json ~clean ~doctored in
    let steal0 = Host.steal_ticks () in
    if !trace = 0 then
      untraced ~workload:!workload ~seed:!seed ~seconds:!seconds ~steal0 ~selftest
    else Layers.run ~workload:!workload ~seed:!seed ~seconds:!seconds ~steal0 ~selftest
  end
