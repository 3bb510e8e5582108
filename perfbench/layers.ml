(* The traced per-layer run (--trace 1). Each workload's operation is
   rebuilt from the same public calls, with a benchmark span around every
   call the benchmark makes itself; the compiler's own Sp_obs.Trace spans
   fill in the layers inside. Untraced and traced passes alternate, so
   the difference between them is the tracing overhead. Work counts come
   from one further steady pass with Sp_obs.Cost on. *)

module C = Work.C
module Service = Work.Service
module Trace = Sp_obs.Trace
module Cost = Sp_obs.Cost

(* ---- per-pass counts the benchmark takes itself -------------------------- *)

type acc = {
  mutable tokens : int;
  mutable unroll_sum : int;
  mutable emit_words : int;
  mutable dyn_ops : int;
  mutable response_bytes : int;
  mutable compile_alloc : float;  (* minor words *)
  mutable digest_alloc : float;
  mutable spawns : int;
  mutable hits : int;
  mutable misses : int;
  mutable inserts : int;
}

let acc =
  {
    tokens = 0; unroll_sum = 0; emit_words = 0; dyn_ops = 0; response_bytes = 0;
    compile_alloc = 0.; digest_alloc = 0.; spawns = 0; hits = 0; misses = 0;
    inserts = 0;
  }

let reset () =
  acc.tokens <- 0; acc.unroll_sum <- 0; acc.emit_words <- 0; acc.dyn_ops <- 0;
  acc.response_bytes <- 0; acc.compile_alloc <- 0.; acc.digest_alloc <- 0.;
  acc.spawns <- 0; acc.hits <- 0; acc.misses <- 0; acc.inserts <- 0

let allocating f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. w0)

let add_cache_stats (s : Sp_serve.Cache.stats) (s0 : Sp_serve.Cache.stats) =
  acc.hits <- acc.hits + s.hits - s0.hits;
  acc.misses <- acc.misses + s.misses - s0.misses;
  acc.inserts <- acc.inserts + s.inserts - s0.inserts

let add_result (r : C.result) =
  acc.emit_words <- acc.emit_words + r.C.code_size;
  List.iter (fun (lr : C.loop_report) -> acc.unroll_sum <- acc.unroll_sum + lr.C.unroll) r.C.loops

let tokens src = List.length (Sp_lang.Lexer.tokenize src)

let frontend f = Trace.span "bench.frontend" f

let compile ?(config = C.default) ir =
  let r, w = allocating (fun () -> C.program ~config Work.machine ir) in
  acc.compile_alloc <- acc.compile_alloc +. w;
  r

let digest r =
  let d, w = allocating (fun () -> Trace.span "bench.digest" (fun () -> C.fingerprint r)) in
  acc.digest_alloc <- acc.digest_alloc +. w;
  d

(* ---- the operations, rebuilt with spans ----------------------------------- *)

(* campaign: Oracle.run's steps for one seed at Campaign.default — the -j 1
   compile, resource check, validator, interpreter and simulator, the
   -j 2 re-compile, a cold and a warm compile through a fresh schedule
   cache, and on every [opt_every]-th seed the learn-off/learn-on
   certified compiles. *)
let campaign_op seed =
  let src =
    Trace.span "bench.wgen" (fun () -> Sp_lang.Wgen.print (Sp_lang.Wgen.generate ~seed))
  in
  let lower () = frontend (fun () -> Sp_lang.Lower.compile_source src) in
  let ir = lower () in
  let r = compile ir in
  add_result r;
  let m = Work.machine in
  let checked = Trace.span "bench.check" (fun () -> Sp_vliw.Check.check_prog m r.C.code = []) in
  let valid =
    Trace.span "bench.validate" (fun () -> Sp_vliw.Validate.ok (Sp_vliw.Validate.all m r.C.code))
  in
  let init st = Sp_camp.Oracle.init_state st ir in
  let oracle = Trace.span "bench.interp" (fun () -> Sp_ir.Interp.run ~init ir) in
  let sim =
    Trace.span "bench.sim" (fun () ->
        Sp_vliw.Sim.run ~init ~max_cycles:Sp_camp.Oracle.default.Sp_camp.Oracle.max_cycles m ir
          r.C.code)
  in
  acc.dyn_ops <- acc.dyn_ops + sim.Sp_vliw.Sim.dyn_ops;
  let same_state =
    Sp_ir.Machine_state.observably_equal oracle.Sp_ir.Interp.state sim.Sp_vliw.Sim.state
  in
  let direct = digest r in
  let r2, _ =
    Trace.span "bench.compile_j2" (fun () ->
        Trace.collect (fun () -> compile ~config:{ C.default with C.jobs = 2 } (lower ())))
  in
  acc.spawns <- acc.spawns + 1;
  let jobs_same = digest r2 = direct in
  let cache = Sp_serve.Cache.create ~capacity:64 in
  let s0 = Sp_serve.Cache.stats cache in
  let config = { C.default with C.cache = Some (Sp_serve.Cache.hook cache) } in
  let cold = digest (compile ~config (lower ())) in
  let warm = digest (compile ~config (lower ())) in
  add_cache_stats (Sp_serve.Cache.stats cache) s0;
  if seed mod Work.Campaign.default.Work.Campaign.opt_every = 0 then
    List.iter
      (fun learn ->
        let config =
          {
            C.default with
            C.certifier = Some (Sp_opt.Certify.hook ~fuel:Sp_camp.Oracle.opt_fuel ~learn ());
          }
        in
        ignore (compile ~config (lower ())))
      [ false; true ];
  let ok = checked && valid && same_state && jobs_same && cold = direct && warm = direct in
  fun () -> ok

(* ---- the traced run --------------------------------------------------------- *)

(* Self time of every span name over a list of events: its duration less
   the durations of its direct children. Spans recorded on one domain
   nest properly, so the direct children of a span never overlap. *)
let self_times events =
  let spans =
    List.filter_map
      (function
        | Trace.Span { name; ts; dur; _ } -> Some (name, ts, Int64.add ts dur, dur)
        | Trace.Instant _ -> None)
      events
    |> List.sort (fun (_, a, ea, _) (_, b, eb, _) ->
           match compare a b with 0 -> compare eb ea | c -> c)
  in
  let self = Hashtbl.create 32 and count = Hashtbl.create 32 in
  let add name d =
    Hashtbl.replace self name (Int64.add d (Option.value ~default:0L (Hashtbl.find_opt self name)))
  in
  let stack = ref [] in
  List.iter
    (fun (name, ts, te, dur) ->
      let rec pop () =
        match !stack with
        | (_, pe) :: rest when pe <= ts ->
          stack := rest;
          pop ()
        | _ -> ()
      in
      pop ();
      (match !stack with (pname, _) :: _ -> add pname (Int64.neg dur) | [] -> ());
      add name dur;
      Hashtbl.replace count name (1 + Option.value ~default:0 (Hashtbl.find_opt count name));
      stack := (name, te) :: !stack)
    spans;
  (self, count)

(* Which spans make up each per-layer time. Spans named nowhere here —
   the operation's own root, the compile driver's root, the service's
   schedule wrapper — are the unattributed remainder. *)
let layers =
  [
    ("frontend.us", [ "bench.frontend"; "compile.parse"; "compile.typecheck"; "compile.lower" ]);
    ("wgen.us", [ "bench.wgen" ]);
    ("ddg.us", [ "compile.ddg" ]);
    ("compact.us", [ "compile.compact" ]);
    ("bounds.us", [ "compile.mii" ]);
    ("modsched.us", [ "compile.modsched" ]);
    ("exact.us", [ "compile.certify" ]);
    ("mve.us", [ "compile.mve" ]);
    ("emit.us", [ "compile.emit" ]);
    ("validate.us", [ "compile.validate"; "bench.validate" ]);
    ("check.us", [ "bench.check" ]);
    ("sim.us", [ "bench.sim" ]);
    ("interp.us", [ "bench.interp" ]);
    ("fingerprint.us", [ "cache.fingerprint" ]);
    ("cache.probe_us", [ "cache.probe"; "cache.verify" ]);
    ("service.decode_us", [ "bench.decode"; "request.decode" ]);
    ("service.encode_us", [ "bench.encode"; "request.encode" ]);
    ("service.handle_us", [ "bench.handle" ]);
    ("digest.us", [ "bench.digest" ]);
    ("compile_j2.us", [ "bench.compile_j2" ]);
  ]

let instants name events =
  List.filter_map
    (function Trace.Instant { name = n; args; _ } when n = name -> Some args | _ -> None)
    events

let int_arg key args =
  match List.assoc_opt key args with Some (Trace.I n) -> n | _ -> 0

(* The span file holds the first traced passes only, which keeps it to a
   few megabytes; the per-layer figures use every traced pass. *)
let spans_kept = 10

(* Chrome trace_event document of the traced passes, one thread row per
   pass; timestamps are microseconds from the start of that pass. *)
let write_spans path passes =
  Procs.mkdir_p (Filename.dirname path);
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc "{\"traceEvents\": [";
  let first = ref true in
  List.iteri
    (fun tid events ->
      List.iter
        (fun ev ->
          let name, ts, ph, dur =
            match ev with
            | Trace.Span { name; ts; dur; _ } -> (name, ts, "X", Some dur)
            | Trace.Instant { name; ts; _ } -> (name, ts, "i", None)
          in
          if not !first then output_string oc ",\n";
          first := false;
          Printf.fprintf oc "{\"name\": %S, \"ph\": %S, \"pid\": 1, \"tid\": %d, \"ts\": %.3f%s}"
            name ph tid (Int64.to_float ts /. 1e3)
            (match dur with
            | Some d -> Printf.sprintf ", \"dur\": %.3f" (Int64.to_float d /. 1e3)
            | None -> ", \"s\": \"t\""))
        events)
    passes;
  output_string oc "]}\n"

(* Per-op time of a pool create + shutdown at the campaign's -j 2 width. *)
let pool_spawn_s () =
  let reps = 20 in
  let _, dt =
    Host.time (fun () ->
        for _ = 1 to reps do
          Sp_util.Pool.shutdown (Sp_util.Pool.create ~jobs:2)
        done)
  in
  dt /. float_of_int reps

let run ~workload ~seed ~seconds ~steal0 ~selftest =
  let tally = Work.tally () in
  let camp = workload = "campaign" in
  let n =
    if camp then Work.campaign_population else Array.length Work.suite
  in
  (* [op i] runs one operation and returns the check of its output, which
     runs outside the timing unless the workload's operation includes it
     (the campaign's does); [counting ()] gives the operation whose
     Sp_obs.Cost counts are reported, ready for a steady pass, and what
     to do after that pass *)
  let progs = if camp then Array.init n Work.campaign_prog else Work.suite in
  let toks = Array.map (fun (p : Work.prog) -> tokens p.Work.src) progs in
  let count_tokens i = acc.tokens <- acc.tokens + toks.(i) in
  let op, counting, cost_on =
    match workload with
    | "campaign" ->
      let op i =
        count_tokens i;
        campaign_op i
      in
      (op, (fun () -> (op, ignore)), true)
    | "exact-unroll2" ->
      let reference =
        Array.map
          (fun (p : Work.prog) ->
            let ir, r = Work.exact_op p in
            if Result.is_ok (Work.check_compile p ir r) then Work.result_digest r else "")
          Work.suite
      in
      let op i =
        let p = Work.suite.(i) in
        count_tokens i;
        let ir = frontend (fun () -> Sp_lang.Unroll.compile_source ~k:2 p.Work.src) in
        let r = compile ~config:Work.exact_config ir in
        add_result r;
        fun () -> reference.(i) <> "" && Work.result_digest r = reference.(i)
      in
      (op, (fun () -> (op, ignore)), false)
    | _ ->
      let requests = Array.map Work.compile_request Work.suite in
      let compiled = Array.map Work.default_compile Work.suite in
      let reference =
        let svc = Service.create ~cache_capacity:0 ~telemetry:false () in
        Fun.protect ~finally:(fun () -> Service.close svc) @@ fun () ->
        Array.mapi
          (fun i (p : Work.prog) ->
            let ir, r = compiled.(i) in
            match Work.check_compile p ir r with
            | Error _ -> ""
            | Ok _ -> (
              match Service.handle svc (Result.get_ok (Service.parse_request requests.(i))) with
              | Service.Ok _ as resp -> Service.render_response resp
              | Service.Err _ -> ""))
          Work.suite
      in
      let served svc i =
        count_tokens i;
        add_result (snd compiled.(i));
        let rq = Trace.span "bench.decode" (fun () -> Service.parse_request requests.(i)) in
        let resp, w =
          allocating (fun () ->
              Trace.span "bench.handle" (fun () -> Service.handle svc (Result.get_ok rq)))
        in
        acc.compile_alloc <- acc.compile_alloc +. w;
        let payload = Trace.span "bench.encode" (fun () -> Service.render_response resp) in
        acc.response_bytes <- acc.response_bytes + String.length payload;
        fun () -> reference.(i) <> "" && String.equal payload reference.(i)
      in
      (* the daemon's settings: default cache, one job, telemetry and
         cost accounting on *)
      let daemon = Service.create () in
      let cache_of svc = Option.get (Service.cache svc) in
      let op i =
        let s0 = Sp_serve.Cache.stats (cache_of daemon) in
        let ok = served daemon i in
        add_cache_stats (Sp_serve.Cache.stats (cache_of daemon)) s0;
        ok
      in
      (* counts need a telemetry-off twin: the telemetry path collects
         each request's work units privately for its own series. Its
         cache is filled here, before the counts start, as the daemon's
         was by the warm-up pass. *)
      let counting () =
        let twin = Service.create ~telemetry:false () in
        Array.iteri (fun i _ -> ignore (served twin i ())) Work.suite;
        ( (fun i ->
            let s0 = Sp_serve.Cache.stats (cache_of twin) in
            let ok = served twin i in
            add_cache_stats (Sp_serve.Cache.stats (cache_of twin)) s0;
            ok),
          fun () -> Service.close twin )
      in
      (op, counting, true)
  in
  if cost_on then Cost.enable ();
  let order = Work.orders ~seed n in
  (* one pass of op, timing each operation in wall seconds, like the
     spans; returns the op times *)
  let pass f =
    Array.map
      (fun i ->
        let t0 = Host.now () in
        let check = try Trace.span "bench.op" (fun () -> f i) with _ -> fun () -> false in
        let dt = Host.now () -. t0 in
        Work.count tally (try check () with _ -> false);
        dt)
      (order ())
  in
  (* warm-up: fills the serve cache and the heap, untimed *)
  ignore (pass op);
  let untraced = ref [] and traced = ref [] and recorded = ref [] in
  let t0 = Host.now () in
  while !traced = [] || Host.now () -. t0 < seconds do
    untraced := pass op :: !untraced;
    Trace.enable ();
    traced := pass op :: !traced;
    Trace.disable ();
    recorded := Trace.events () :: !recorded
  done;
  let recorded = List.rev !recorded in
  let npasses = List.length recorded in
  (* the counting pass *)
  let cop, finish = counting () in
  Cost.enable ();
  reset ();
  let gc0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  ignore (pass cop);
  let minor = Gc.minor_words () -. w0 in
  let gc1 = Gc.quick_stat () in
  let counters = Cost.counter_totals (Cost.snapshot ()) in
  Cost.disable ();
  finish ();
  let counter c = float_of_int (List.assoc c counters) in
  (* per-op self times over every traced pass *)
  let self = Hashtbl.create 32 and counts = Hashtbl.create 32 in
  List.iter
    (fun events ->
      let s, c = self_times events in
      Hashtbl.iter (fun k v -> Hashtbl.replace self k (Int64.add v (Option.value ~default:0L (Hashtbl.find_opt self k)))) s;
      Hashtbl.iter (fun k v -> Hashtbl.replace counts k (v + Option.value ~default:0 (Hashtbl.find_opt counts k))) c)
    recorded;
  let ops = float_of_int (npasses * n) in
  let us names =
    List.fold_left
      (fun a nm -> a +. Int64.to_float (Option.value ~default:0L (Hashtbl.find_opt self nm)))
      0. names
    /. 1e3 /. ops
  in
  let attributed = List.concat_map snd layers in
  let unattributed =
    Hashtbl.fold (fun k v a -> if List.mem k attributed then a else a +. Int64.to_float v) self 0.
    /. 1e3 /. ops
  in
  let remainder =
    Hashtbl.fold
      (fun k v a -> if List.mem k attributed then a else (k, Int64.to_float v /. 1e3 /. ops) :: a)
      self []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
    |> List.map (fun (k, v) -> Printf.sprintf "%S: %.3f" k v)
    |> String.concat ", "
  in
  let per_pass x = x /. float_of_int npasses in
  let all_events = List.concat recorded in
  let intervals =
    List.fold_left (fun a args -> a + int_arg "intervals_probed" args) 0
      (instants "modsched.search" all_events)
  in
  let solves = List.length (instants "exact.solve" all_events) in
  let fp_calls = Option.value ~default:0 (Hashtbl.find_opt counts "cache.fingerprint") in
  (* fingerprint allocation: the same canonicalisation, called directly
     on the innermost loops of the workload's programs *)
  let fp_alloc_per_call =
    if fp_calls = 0 then 0.
    else begin
      let calls = ref 0 and words = ref 0. in
      Array.iter
        (fun (p : Work.prog) ->
          List.iter
            (fun (_, g) ->
              let _, w = allocating (fun () -> Sp_serve.Fingerprint.canon g Work.machine) in
              incr calls;
              words := !words +. w)
            (C.innermost_ddgs Work.machine (Sp_lang.Lower.compile_source p.Work.src)))
        progs;
      if !calls = 0 then 0. else !words /. float_of_int !calls
    end
  in
  let spawn_s = if camp then pool_spawn_s () else 0. in
  let mean xs = Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs) in
  let rate passes =
    let ts = Array.concat passes in
    1. /. mean ts
  in
  let ops_untraced = rate !untraced and ops_traced = rate !traced in
  let fi = float_of_int in
  let hits = fi acc.hits and misses = fi acc.misses in
  let ms =
    List.map (fun (name, names) -> (name, "us", us names)) layers
    @ [
        ("frontend.tokens", "count", fi acc.tokens);
        ("ddg.edges", "count", counter Cost.Ddg_edge);
        ("compact.heap_ops", "count", counter Cost.Heap_op);
        ("spath.relax", "count", counter Cost.Spath_relax);
        ("spath.insert", "count", counter Cost.Spath_insert);
        ("mrt.probes", "count", counter Cost.Mrt_probe);
        ("modsched.intervals", "count", per_pass (fi intervals));
        ("exact.nodes", "count", counter Cost.Exact_node);
        ("exact.prune_window", "count", counter Cost.Exact_prune_window);
        ("exact.prune_resource", "count", counter Cost.Exact_prune_resource);
        ("exact.nogood_hits", "count", counter Cost.Exact_nogood_hit);
        ("exact.backjumps", "count", counter Cost.Exact_backjump);
        ("certify.intervals", "count", per_pass (fi solves));
        ("mve.unroll_sum", "count", fi acc.unroll_sum);
        ("emit.words", "count", fi acc.emit_words);
        ("sim.dyn_ops", "count", fi acc.dyn_ops);
        ("fingerprint.calls", "count", per_pass (fi fp_calls));
        ("fingerprint.alloc_mw", "Mwords", per_pass (fi fp_calls) *. fp_alloc_per_call /. 1e6);
        ("cache.hits", "count", hits);
        ("cache.misses", "count", misses);
        ("cache.inserts", "count", fi acc.inserts);
        ("cache.hit_ratio", "ratio", if hits +. misses = 0. then 0. else hits /. (hits +. misses));
        ("cache.verify_edges", "count", counter Cost.Cache_verify_edge);
        ("service.response_bytes", "bytes", fi acc.response_bytes);
        ("digest.alloc_mw", "Mwords", acc.digest_alloc /. 1e6);
        ("pool.spawns", "count", fi acc.spawns);
        ("pool.spawn_us", "us", fi acc.spawns *. spawn_s *. 1e6 /. fi n);
        ("compile.alloc_mw", "Mwords", acc.compile_alloc /. 1e6);
        ("gc.minor_mw", "Mwords", minor /. 1e6);
        ("gc.major_collections", "count",
          fi (gc1.Gc.major_collections - gc0.Gc.major_collections));
        ("trace.overhead", "ratio", ops_untraced /. ops_traced);
        ("trace.unattributed_us", "us", unattributed);
      ]
  in
  let path = Printf.sprintf "perfbench/out/spans-%s-%d.json" workload seed in
  write_spans path (List.filteri (fun i _ -> i < spans_kept) recorded);
  Printf.printf
    "{\"perfbench\": {\"workload\": %S, \"seed\": %d, \"trace\": 1, \"host\": %s, \
     \"passes\": {\"untraced\": %d, \"traced\": %d, \"per_pass\": %d}, \
     \"ops_per_s\": {\"untraced\": %.3f, \"traced\": %.3f}, \"unattributed_us\": {%s}, \"spans\": %S, \
     \"selftest\": %s}}\n"
    workload seed (Report.host_json ~steal0) (List.length !untraced) npasses n
    ops_untraced ops_traced remainder path selftest;
  let correct = tally.Work.failed = 0 in
  Report.result_line ~correct tally ms;
  if not correct then exit 1
