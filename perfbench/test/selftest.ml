(* Deterministic-count self-test of the benchmark.

   Every workload in BENCHMARK.json runs at a tiny size: twice with one seed
   (the exact counts must repeat), once with another (the counts the seed
   should move must move), and once traced. Every metric BENCHMARK.json
   names must be emitted with its unit, and the tiny runs must pass their
   own output checks.

     selftest.exe --cli PATH --benchmark PATH *)

open Perfbench

let failures = ref 0

let check cond fmt =
  Printf.ksprintf
    (fun msg ->
      if cond then Printf.printf "ok   %s\n%!" msg
      else begin
        incr failures;
        Printf.printf "FAIL %s\n%!" msg
      end)
    fmt

(* Counts the seed must move, per workload. *)
let seeded_keys = function
  | "serve-whatif" ->
    [ "requests.all_pairs"; "requests.multipath"; "requests.loops"; "requests.routes";
      "requests.reachability"; "requests.update" ]
  | "failures-dc-k1" -> [ "checked_sample" ]
  | _ -> [ "input_digest"; "answer_digest" ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec arg k = function
    | k' :: v :: _ when k' = k -> v
    | _ :: rest -> arg k rest
    | [] -> failwith ("missing " ^ k)
  in
  let cli = arg "--cli" args and bench = arg "--benchmark" args in
  let spec =
    match Sjson.parse (In_channel.with_open_bin bench In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  let list k =
    Option.value ~default:[] (Option.bind (Sjson.member k spec) Sjson.get_arr)
  in
  let field k j = Option.bind (Sjson.member k j) Sjson.get_string in
  let named k =
    List.filter_map (fun j -> match (field "name" j, field "unit" j) with
      | Some n, u -> Some (n, u) | None, _ -> None) (list k)
  in
  let workloads = List.map fst (named "workloads") in
  let nproc = Common.nproc () in
  let run ~name ~seed ~trace =
    let w = Option.get (Workloads.find name) in
    let out_dir = Printf.sprintf "selftest_out/%s-%d-%b" name seed trace in
    Common.rm_rf out_dir;
    Common.mkdir_p out_dir;
    w.Workloads.run
      { Common.seed; seconds = 1.; trace; nproc; domains = nproc; clients = min 2 nproc;
        out_dir; cli; commit = "selftest"; tiny = true; max_ops = Some 12 }
  in
  List.iter
    (fun name ->
      let a = run ~name ~seed:1 ~trace:false in
      let b = run ~name ~seed:1 ~trace:false in
      let c = run ~name ~seed:2 ~trace:false in
      check (Report.correct a && Report.correct c) "%s: tiny runs pass their output checks" name;
      check (a.Common.counts = b.Common.counts) "%s: counts repeat for one seed (%s)" name
        (String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) a.Common.counts));
      let moved =
        List.filter
          (fun k -> List.assoc_opt k a.Common.counts <> List.assoc_opt k c.Common.counts)
          (seeded_keys name)
      in
      check (moved <> []) "%s: another seed changes %s" name (String.concat "/" (seeded_keys name));
      let t = run ~name ~seed:1 ~trace:true in
      let emits what (expected : (string * string option) list) (got : Common.metric list) =
        List.iter
          (fun (n, u) ->
            let m = List.find_opt (fun (m : Common.metric) -> m.Common.name = n) got in
            check
              (match m with Some m -> Some m.Common.unit = u | None -> false)
              "%s: %s metric %s emitted in %s" name what n (Option.value ~default:"?" u))
          expected
      in
      emits "end-to-end" (named "end_to_end") a.Common.e2e;
      emits "per-layer" (named "per_layer") t.Common.layers)
    workloads;
  Common.rm_rf "selftest_out";
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
