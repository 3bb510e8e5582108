(* The programs each workload runs, its operation, and the checks every
   operation's output goes through. Everything here reaches the compiler
   through its public entry points only. *)

module C = Sp_core.Compile
module Service = Sp_serve.Service
module Campaign = Sp_camp.Campaign

let machine = Sp_machine.Machine.warp

type prog = {
  name : string;
  src : string;
  init : Sp_ir.Machine_state.t -> Sp_ir.Program.t -> unit;
  inputs : float list list;
}

(* The 72-program suite, in its fixed order. *)
let suite : prog array =
  Sp_kernels.Suite.all
  |> List.filter_map (fun (e : Sp_kernels.Suite.entry) ->
         let k = e.Sp_kernels.Suite.kernel in
         match k.Sp_kernels.Kernel.source with
         | Sp_kernels.Kernel.W2 src ->
           Some
             {
               name = k.Sp_kernels.Kernel.name;
               src;
               init = k.Sp_kernels.Kernel.init;
               inputs = k.Sp_kernels.Kernel.inputs;
             }
         | Sp_kernels.Kernel.Ir _ -> None)
  |> Array.of_list

(* The campaign's fixed generator population. *)
let campaign_population = 250

let campaign_prog seed =
  {
    name = Printf.sprintf "seed%d" seed;
    src = Sp_lang.Wgen.print (Sp_lang.Wgen.generate ~seed);
    init = Sp_camp.Oracle.init_state;
    inputs = [];
  }

(* A seeded order over [0, n): the same seed gives the same sequence of
   permutations. *)
let orders ~seed n =
  let rng = Random.State.make [| seed; n |] in
  fun () ->
    let a = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    a

(* ---- operations ------------------------------------------------------ *)

let exact_config = { C.default with C.certifier = Some (Sp_opt.Certify.hook ()) }

(* exact-unroll2: source -> unrolled IR -> certified compile. *)
let exact_op (p : prog) =
  let ir = Sp_lang.Unroll.compile_source ~k:2 p.src in
  (ir, C.program ~config:exact_config machine ir)

(* campaign: one seed through [Campaign.run] at its defaults, one domain. *)
let campaign_op seed =
  Campaign.run { Campaign.default with Campaign.lo = seed; hi = seed; jobs = 1 }

let compile_request (p : prog) =
  Service.render_request
    (Service.Compile { machine = "warp"; inject = None; trace = None; source = p.src })

let default_compile (p : prog) =
  let ir = Sp_lang.Lower.compile_source p.src in
  (ir, C.program machine ir)

(* ---- checks ---------------------------------------------------------- *)

let cert_tags (r : C.result) =
  List.filter_map
    (fun (lr : C.loop_report) -> Option.map C.cert_to_string lr.C.cert)
    r.C.loops

(* What must repeat exactly for one compiled program: the code, each
   loop's outcome and its certificate. *)
let result_digest (r : C.result) =
  Digest.to_hex
    (Digest.string (String.concat "\n" (C.fingerprint r :: cert_tags r)))

(* What must repeat exactly for one campaign seed: the whole summary
   (verdicts, histograms, work-unit views, pass-rate series). *)
let summary_digest (s : Campaign.summary) =
  Digest.to_hex (Digest.string (Marshal.to_string s [ Marshal.No_sharing ]))

let campaign_passed (s : Campaign.summary) =
  s.Campaign.total = 1 && s.Campaign.pass = 1

type run_stats = { cycles : int; dyn_ops : int }

(* The compiled code passes the resource check and the validator, and
   simulating it ends in the state the sequential interpreter reaches. *)
let check_compile (p : prog) (ir : Sp_ir.Program.t) (r : C.result) :
    (run_stats, string) result =
  match
    match Sp_vliw.Check.check_prog machine r.C.code with
    | v :: _ -> Error (Fmt.str "resource check: %a" Sp_vliw.Check.pp_violation v)
    | [] ->
      if not (Sp_vliw.Validate.ok (Sp_vliw.Validate.all machine r.C.code)) then
        Error "validator rejected the code"
      else
        let init st = p.init st ir in
        let sim = Sp_vliw.Sim.run ~inputs:p.inputs ~init machine ir r.C.code in
        let oracle = Sp_ir.Interp.run ~inputs:p.inputs ~init ir in
        if
          Sp_ir.Machine_state.observably_equal oracle.Sp_ir.Interp.state
            sim.Sp_vliw.Sim.state
        then
          Ok { cycles = sim.Sp_vliw.Sim.cycles; dyn_ops = sim.Sp_vliw.Sim.dyn_ops }
        else Error "simulated state differs from the interpreter"
  with
  | v -> v
  | exception e -> Error ("check raised " ^ Printexc.to_string e)

(* ---- output quality -------------------------------------------------- *)

type quality = {
  mutable code_words : int;
  mutable ii_sum : int;
  mutable sim_cycles : int;
  mutable certified : int;  (* loops the certifier ran on *)
  mutable decided : int;    (* ... and decided (optimal or improved) *)
}

let quality () =
  { code_words = 0; ii_sum = 0; sim_cycles = 0; certified = 0; decided = 0 }

let add_result q (r : C.result) (st : run_stats) =
  q.code_words <- q.code_words + r.C.code_size;
  q.sim_cycles <- q.sim_cycles + st.cycles;
  List.iter
    (fun (lr : C.loop_report) ->
      Option.iter (fun ii -> q.ii_sum <- q.ii_sum + ii) lr.C.ii)
    r.C.loops

let add_certs q (r : C.result) =
  List.iter
    (fun (lr : C.loop_report) ->
      match lr.C.cert with
      | None -> ()
      | Some (C.Cert_unknown _) -> q.certified <- q.certified + 1
      | Some _ ->
        q.certified <- q.certified + 1;
        q.decided <- q.decided + 1)
    r.C.loops

let decided_frac q =
  if q.certified = 0 then nan
  else float_of_int q.decided /. float_of_int q.certified

(* A compile response carries the code the daemon serves: a header line
   giving its size, then the listing. It matches a compile result when
   both are that result's, so the checks and quality figures of the
   result hold for the served code. *)
let response_matches payload (r : C.result) =
  match Service.parse_response payload with
  | Service.Err _ -> false
  | Service.Ok body -> (
    match String.index_opt body '\n' with
    | None -> false
    | Some nl ->
      String.equal
        (String.sub body (nl + 1) (String.length body - nl - 1))
        (Fmt.str "%a" Sp_vliw.Prog.pp r.C.code)
      &&
      match Scanf.sscanf (String.sub body 0 nl) "; %_s@: %d instructions" Fun.id with
      | size -> size = r.C.code_size
      | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> false)

(* ---- per-operation verdicts ------------------------------------------ *)

(* A timed operation passes when its output matches the reference pass
   exactly and the reference itself passed [check_compile]: identical
   code has identical check results, so the expensive checks run once per
   program and every later operation is held to its digest. *)
type reference = { digests : string array; sound : bool array }

let serve_ok (rf : reference) i payload =
  rf.sound.(i) && String.equal rf.digests.(i) payload

let exact_ok (rf : reference) i ((_, r) : Sp_ir.Program.t * C.result) =
  rf.sound.(i) && String.equal rf.digests.(i) (result_digest r)

let campaign_ok (rf : reference) i (s : Campaign.summary) =
  rf.sound.(i) && campaign_passed s && String.equal rf.digests.(i) (summary_digest s)

type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let count t ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1

(* ---- must-fire self-test ---------------------------------------------- *)

(* Doctored outputs go through the same verdicts and the same tally the
   timed operations use, and each must be counted as failed. A checker
   that lets one through would make every result meaningless, so the
   benchmark refuses to run when this fails. The clean outputs beside
   them show the verdicts do not simply reject everything. *)
let selftest () =
  let p = suite.(1) in
  let ir = Sp_lang.Lower.compile_source p.src in
  let r = C.program machine ir in
  let clean = tally () and doctored = tally () in
  (* a served response one byte off the uncached reference *)
  let payload =
    let svc = Service.create ~cache_capacity:0 ~telemetry:false () in
    Fun.protect ~finally:(fun () -> Service.close svc) @@ fun () ->
    Service.render_response
      (Service.handle svc
         (Service.Compile { machine = "warp"; inject = None; trace = None; source = p.src }))
  in
  let rf_serve = { digests = [| payload |]; sound = [| true |] } in
  let flipped =
    let b = Bytes.of_string payload in
    let i = Bytes.length b - 2 in
    Bytes.set b i (if Bytes.get b i = '1' then '2' else '1');
    Bytes.to_string b
  in
  count clean (serve_ok rf_serve 0 payload);
  count doctored (serve_ok rf_serve 0 flipped);
  (* compiled code with the first non-empty word's operations dropped *)
  let code = r.C.code.Sp_vliw.Prog.code in
  let victim =
    let rec first i =
      if i >= Array.length code - 1 || code.(i).Sp_vliw.Inst.ops <> [] then i
      else first (i + 1)
    in
    first 0
  in
  let bad =
    {
      r with
      C.code =
        {
          Sp_vliw.Prog.code =
            Array.mapi
              (fun i (w : Sp_vliw.Inst.t) ->
                if i = victim then { w with Sp_vliw.Inst.ops = [] } else w)
              code;
        };
    }
  in
  count clean (Result.is_ok (check_compile p ir r));
  count doctored (Result.is_ok (check_compile p ir bad));
  (* a pass digest that does not match the reference pass *)
  let rf = { digests = [| result_digest r |]; sound = [| true |] } in
  let other = C.program machine (Sp_lang.Lower.compile_source suite.(2).src) in
  (* compiling draws registers from the program's supply, so a repeat
     compile needs a fresh lowering to reproduce the digest *)
  let again = Sp_lang.Lower.compile_source p.src in
  count clean (exact_ok rf 0 (again, C.program machine again));
  count doctored (exact_ok rf 0 (ir, other));
  (* a campaign summary that reports its seed as failing *)
  let s = campaign_op 0 in
  let rf_camp = { digests = [| summary_digest s |]; sound = [| true |] } in
  count clean (campaign_ok rf_camp 0 s);
  count doctored (campaign_ok rf_camp 0 { s with Campaign.pass = 0 });
  (clean, doctored)
