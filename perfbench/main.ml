(* Benchmark entry point: run one named workload from a seed and print its
   metrics. [perfbench/run.py] builds this executable and calls it; see
   perfbench/README.md.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--domains D] [--clients C] [--out DIR] [--cli PATH]
              [--commit SHA]

   The last line of standard output is one JSON object:
   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} with
   the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1). *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--domains D] \
     [--clients C] [--out DIR] [--cli PATH] [--commit SHA]";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all));
  exit 2

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("error: " ^ m); exit 2) fmt

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | [] -> acc
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> parse ((k, v) :: acc) rest
    | _ -> usage ()
  in
  let kv = parse [] args in
  let get k = List.assoc_opt k kv in
  let int_arg k default =
    match get k with
    | None -> default
    | Some v -> (match int_of_string_opt v with Some n -> n | None -> die "%s expects an integer" k)
  in
  let name = match get "--workload" with Some w -> w | None -> usage () in
  let w = match Workloads.find name with Some w -> w | None -> die "unknown workload '%s'" name in
  let nproc = Common.nproc () in
  let domains = int_arg "--domains" nproc and clients = int_arg "--clients" (min 2 nproc) in
  if domains < 1 || domains > nproc then
    die "--domains %d refused: this machine has %d core(s)" domains nproc;
  if clients < 1 || clients > nproc then
    die "--clients %d refused: this machine has %d core(s)" clients nproc;
  let seed = int_arg "--seed" 1 and trace = int_arg "--trace" 0 <> 0 in
  let seconds =
    match Option.bind (get "--seconds") float_of_string_opt with
    | Some s when s > 0. -> s
    | Some _ | None -> die "--seconds expects a positive number"
  in
  let out_root = Option.value ~default:"perfbench/out" (get "--out") in
  let out_dir = Filename.concat out_root (Printf.sprintf "%s-seed%d-trace%d" name seed (Bool.to_int trace)) in
  Common.rm_rf out_dir;
  Common.mkdir_p out_dir;
  let cfg =
    { Common.seed; seconds; trace; nproc; domains; clients; out_dir;
      cli = Option.value ~default:"_build/default/bin/batfish_cli.exe" (get "--cli");
      commit = Option.value ~default:"unknown" (get "--commit");
      tiny = false; max_ops = None }
  in
  Printf.printf "workload %s  seed %d  trace %b  nproc %d  domains %d  clients %d\n" name seed
    trace nproc domains clients;
  Printf.printf "ocaml %s  commit %s\n%!" Sys.ocaml_version cfg.Common.commit;
  let o = w.Workloads.run cfg in
  Report.print cfg ~workload:name o;
  Report.write cfg ~workload:name o;
  Common.rm_rf (Filename.concat out_dir "configs");
  print_endline (Report.last_line cfg o);
  exit 0
