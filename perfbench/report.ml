(* The result lines: the JSON object the last line of output must be,
   the host tag and the self-test counts. *)

let num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let metrics_json ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
         ms)
  ^ "}"

let result_line ~correct (t : Work.tally) ms =
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!"
    correct t.Work.attempted t.Work.failed (metrics_json ms)

let host_json ~steal0 =
  let steal =
    match (steal0, Host.steal_ticks ()) with
    | Some a, Some b -> Printf.sprintf "%.2f" (float_of_int (b - a) /. 100.)
    | _ -> "null"
  in
  Printf.sprintf "{\"nproc\": %d, \"ocaml\": %S, \"steal_s\": %s}" (Host.nproc ())
    Sys.ocaml_version steal

(* The must-fire self-test's counts: how many clean outputs passed, and
   how many doctored ones were caught. *)
let selftest_json ~(clean : Work.tally) ~(doctored : Work.tally) =
  Printf.sprintf "{\"clean_passed\": %d, \"clean\": %d, \"doctored_caught\": %d, \"doctored\": %d}"
    (clean.Work.attempted - clean.Work.failed) clean.Work.attempted doctored.Work.failed
    doctored.Work.attempted
