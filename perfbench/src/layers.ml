(* The per-layer metric catalogue. Every traced run reports every entry, so
   one workload's numbers line up with another's; a layer the workload does
   not exercise reads 0. Times are given as self-time shares of the traced
   operation: absolute self times, allocation, GC time and BDD growth per
   layer are in the layer table each traced run writes. *)

let catalogue =
  [ ("config.self_share", "ratio"); ("dataplane.self_share", "ratio");
    ("fgraph.self_share", "ratio"); ("lint.self_share", "ratio");
    ("fquery.self_share", "ratio"); ("questions.self_share", "ratio");
    ("service.self_share", "ratio"); ("update.self_share", "ratio");
    ("sjson.self_share", "ratio"); ("failures.self_share", "ratio");
    ("apt.self_share", "ratio"); ("untraced.self_share", "ratio");
    ("runtime.gc_share", "ratio"); ("runtime.alloc_mw", "Mwords");
    ("runtime.major_gcs", "count"); ("config.alloc_mw", "Mwords");
    ("dataplane.alloc_mw", "Mwords"); ("dataplane.routes", "count");
    ("dataplane.rounds", "count"); ("dataplane.rib_mw", "Mwords");
    ("update.files_reparsed", "count"); ("update.nodes_simulated", "count");
    ("update.nodes_reused_ratio", "ratio");
    ("update.forwarding_rebuilt_ratio", "ratio"); ("fgraph.locs", "count");
    ("fgraph.edges", "count"); ("fquery.start_groups_ratio", "ratio");
    ("fquery.memo_hit_rate", "ratio"); ("fcompress.ratio", "ratio");
    ("fcompress.passes", "count"); ("fcompress.fallbacks", "count");
    ("par.pool_jobs", "count"); ("fpar.worker_imports", "count");
    ("fpar.worker_reuses", "count"); ("fpar.worker_cache_hit_rate", "ratio");
    ("fpar.fanout_speedup", "ratio"); ("bdd.nodes", "count");
    ("bdd.global_nodes", "count"); ("bdd.cache_hit_rate", "ratio");
    ("questions.answer_mb", "MB"); ("service.coalesce_ratio", "ratio");
    ("service.evictions", "count"); ("service.transport_share", "ratio");
    ("failures.enumerated", "count"); ("failures.simulated", "count");
    ("failures.prune_yield", "ratio"); ("apt.atoms", "count");
    ("trace.overhead_ratio", "ratio") ]

(* Layers whose spans the benchmark records; self time of the traced
   operation not covered by any of them is "untraced" (the benchmark's own
   code between calls). *)
let span_layers =
  [ "config"; "dataplane"; "fgraph"; "lint"; "fquery"; "questions"; "service";
    "update"; "sjson"; "failures"; "apt" ]

let ratio a b = if b = 0. then 0. else a /. b

(* Shares, GC and allocation over the operations whose root spans are
   [roots]: self time of each layer over the roots' summed wall time. *)
let from_spans roots =
  let ops = List.map (fun (r : Span.t) -> r.Span.op) roots in
  let rows = Span.layer_table ~keep:(fun s -> List.mem s.Span.op ops) () in
  let total f = List.fold_left (fun acc r -> acc +. f r) 0. roots in
  let wall = total Span.duration in
  let row l = List.find_opt (fun r -> r.Span.l_layer = l) rows in
  let self l = match row l with Some r -> r.Span.l_self_s | None -> 0. in
  let alloc l = match row l with Some r -> r.Span.l_alloc_mw | None -> 0. in
  let covered = List.fold_left (fun acc l -> acc +. self l) 0. span_layers in
  List.map (fun l -> (l ^ ".self_share", ratio (self l) wall)) span_layers
  @ [ ("untraced.self_share", ratio (wall -. covered) wall);
      ("runtime.gc_share", ratio (total (fun r -> r.Span.gc1 -. r.Span.gc0)) wall);
      ("runtime.alloc_mw", total (fun r -> r.Span.w1 -. r.Span.w0) /. 1e6);
      ("runtime.major_gcs", total (fun r -> float (r.Span.maj1 - r.Span.maj0)));
      ("config.alloc_mw", alloc "config"); ("dataplane.alloc_mw", alloc "dataplane") ]

(* The full catalogue from whatever [values] the workload measured. *)
let metrics values =
  List.map
    (fun (name, unit) ->
      Common.metric name unit (Option.value ~default:0. (List.assoc_opt name values)))
    catalogue

(* The human-readable per-layer table of the spans [keep] selects, with the
   coverage check: the self times (the root's own "bench" row being the gap
   no layer call covers) add up to the traced wall time of the operations,
   which is then set against the untraced wall time. *)
let table ?untraced_wall ~title ~keep ~op_wall () =
  let rows = Span.layer_table ~keep () in
  let b = Buffer.create 1024 in
  Printf.bprintf b "%s\n" title;
  Printf.bprintf b "%-12s %6s %11s %11s %9s %10s %12s\n" "layer" "calls" "self_s"
    "alloc_Mw" "major_gc" "gc_ms" "bdd_nodes";
  List.iter
    (fun r ->
      Printf.bprintf b "%-12s %6d %11.4f %11.3f %9d %10.2f %12d\n" r.Span.l_layer r.Span.l_calls
        r.Span.l_self_s r.Span.l_alloc_mw r.Span.l_major_gcs (r.Span.l_gc_s *. 1e3)
        r.Span.l_bdd_nodes)
    rows;
  let self_total = List.fold_left (fun acc r -> acc +. r.Span.l_self_s) 0. rows in
  Printf.bprintf b "sum of self times (the \"bench\" row is time between calls): %.4f s\n"
    self_total;
  Printf.bprintf b "traced operation wall time:      %.4f s\n" op_wall;
  Option.iter
    (fun u ->
      Printf.bprintf b
        "untraced operation wall time:    %.4f s (tracing overhead %+.4f s, %+.2f%%)\n" u
        (op_wall -. u) (100. *. ratio (op_wall -. u) u))
    untraced_wall;
  Buffer.contents b
