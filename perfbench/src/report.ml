(* Printing and saving a workload's outcome, with its environment record. *)

open Common

let correct o = o.failed = 0 && o.attempted > 0

(* The metrics the last line carries: end-to-end untraced, per-layer traced. *)
let reported cfg o = if cfg.trace then o.layers else o.e2e

let last_line cfg o =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}"
    (correct o) o.attempted o.failed (metrics_json (reported cfg o))

let env_fields cfg ~workload =
  [ ("workload", Span.json_string workload); ("seed", string_of_int cfg.seed);
    ("seconds", json_float cfg.seconds); ("trace", string_of_bool cfg.trace);
    ("nproc", string_of_int cfg.nproc); ("domains", string_of_int cfg.domains);
    ("clients", string_of_int cfg.clients);
    ("ocaml_version", Span.json_string Sys.ocaml_version);
    ("commit", Span.json_string cfg.commit) ]

let print cfg ~workload o =
  List.iter (fun n -> Printf.printf "note: %s\n" n) o.notes;
  Printf.printf "%s: %d attempted, %d failed\n" workload o.attempted o.failed;
  print_endline "end-to-end:";
  List.iter print_metric (o.e2e @ o.detail);
  if cfg.trace then begin
    print_endline "per-layer:";
    List.iter print_metric o.layers
  end;
  print_endline "counts:";
  List.iter (fun (k, v) -> Printf.printf "  %-34s %s\n" k v) o.counts;
  flush stdout

(* result.json beside the run's other files: environment, every metric,
   the exact counts and the notes. *)
let write cfg ~workload o =
  let obj kvs =
    "{" ^ String.concat ", " (List.map (fun (k, v) -> Span.json_string k ^ ": " ^ v) kvs) ^ "}"
  in
  let text =
    obj
      [ ("environment", obj (env_fields cfg ~workload));
        ("correct", string_of_bool (correct o)); ("attempted", string_of_int o.attempted);
        ("failed", string_of_int o.failed); ("end_to_end", metrics_json o.e2e);
        ("detail", metrics_json o.detail); ("per_layer", metrics_json o.layers);
        ("counts", obj (List.map (fun (k, v) -> (k, Span.json_string v)) o.counts));
        ("notes", "[" ^ String.concat ", " (List.map Span.json_string o.notes) ^ "]") ]
  in
  write_file (Filename.concat cfg.out_dir "result.json") (text ^ "\n")
