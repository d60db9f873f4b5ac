(* Cold CI analysis: configuration text on disk in, rendered answers out,
   through the library calls [batfish_cli check] and [batfish_cli verify]
   make. One operation parses the directory, computes the data plane and
   the forwarding graph, runs every hygiene check plus all-pairs,
   multipath-consistency and loop detection, and renders every answer. *)

open Common

type analysis = {
  bf : Batfish.t;
  all_pairs : Questions.answer;
  text_bytes : int;
  text_digest : string;
  stage_s : (string * float) list;  (** plain timings, traced or not *)
}

let span = Span.with_span

(* [loops] is off on the HA fabric: [Fquery.find_loops] does not finish
   there (over 100 s from 68 devices up, 2 ms at 36), which would leave the
   workload nothing else to measure. *)
let analyse ~domains ~loops dir =
  let stages = ref [] in
  let stage name layer f =
    let v, dt = time (fun () -> span ~layer name f) in
    stages := (name, dt) :: !stages;
    v
  in
  let snap = stage "Snapshot.of_dir" "config" (fun () -> Batfish.Snapshot.of_dir dir) in
  let bf = Batfish.init ~options:{ Dataplane.default_options with domains } snap in
  ignore (stage "Batfish.dataplane" "dataplane" (fun () -> Batfish.dataplane bf));
  ignore (stage "Batfish.forwarding" "fgraph" (fun () -> Batfish.forwarding bf));
  let checks = stage "Batfish.check_all" "lint" (fun () -> Batfish.check_all bf) in
  let ap = stage "Batfish.answer_all_pairs" "fquery" (fun () -> Batfish.answer_all_pairs bf) in
  let mp =
    stage "Batfish.answer_multipath_consistency" "fquery" (fun () ->
        Batfish.answer_multipath_consistency bf)
  in
  let lp =
    if loops then [ stage "Batfish.answer_loops" "fquery" (fun () -> Batfish.answer_loops bf) ]
    else []
  in
  let answers = checks @ [ ap; mp ] @ lp in
  let text =
    stage "Questions.answer_to_string" "questions" (fun () ->
        let b = Buffer.create (1 lsl 20) in
        List.iter
          (fun a ->
            Buffer.add_string b (Questions.answer_to_string a);
            Buffer.add_char b '\n')
          answers;
        Buffer.contents b)
  in
  { bf; all_pairs = ap; text_bytes = String.length text;
    text_digest = digest text; stage_s = List.rev !stages }

(* --- output check: all-pairs rows against concrete traceroute ----------- *)

let delivered_at node (tr : Traceroute.trace) =
  Traceroute.is_delivered tr.Traceroute.disposition
  &&
  match List.rev tr.Traceroute.hops with
  | last :: _ -> last.Traceroute.h_node = node
  | [] -> false

(* A seeded sample of rendered all-pairs rows. Each row is recomputed with
   the single-start engine to recover its example packet (which must render
   as in the answer), and that packet, traced concretely from the row's
   source, must be delivered at the row's destination on some path.
   Returns [(checked, mismatches)]. *)
let check_rows ~seed ~samples a =
  let rows = Array.of_list a.all_pairs.Questions.a_rows in
  if Array.length rows = 0 then (0, [ "all-pairs answer is empty" ])
  else begin
    let rng = Rng.create (seed * 7919 + 17) in
    let fq = Batfish.forwarding a.bf in
    let bad = ref [] in
    let n = min samples (Array.length rows) in
    for _ = 1 to n do
      match rows.(Rng.int rng (Array.length rows)) with
      | [ node; iface; dst; flow ] as row -> (
        let start = (node, if iface = "-" then None else Some iface) in
        let recomputed =
          List.find_opt
            (fun (r : Fquery.reach_row) -> r.Fquery.rr_dst = dst)
            (Fquery.pairs_for_start fq start)
        in
        match recomputed with
        | Some { Fquery.rr_example = Some pkt; _ } when Packet.to_string pkt = flow ->
          let traces = Batfish.traceroute a.bf ~start:node ?ingress:(snd start) pkt in
          if not (List.exists (delivered_at dst) traces) then
            bad :=
              Printf.sprintf "traceroute does not deliver %s from %s/%s at %s (%s)" flow node
                iface dst
                (String.concat "; "
                   (List.map
                      (fun t -> Traceroute.disposition_to_string t.Traceroute.disposition)
                      traces))
              :: !bad
        | _ ->
          bad :=
            Printf.sprintf "row %s not reproduced by the single-start engine"
              (String.concat " | " row)
            :: !bad)
      | row -> bad := ("malformed all-pairs row: " ^ String.concat " | " row) :: !bad
    done;
    (n, List.rev !bad)
  end

(* --- per-layer numbers from one traced analysis ----------------------- *)

let layer_values ~op_root (a : analysis) ~imports0 ~reuses0 ~serial_all_pairs_s
    ~untraced_op_s =
  let dp = Batfish.dataplane a.bf and fq = Batfish.forwarding a.bf in
  let g = Fquery.graph fq in
  let starts = Fquery.default_starts fq in
  let groups = Fquery.start_groups fq starts in
  let hits, misses = Fquery.memo_stats fq in
  let man = Pktset.man (Fquery.env fq) in
  let nodes, _, _ = Bdd.stats man in
  let cs = Bdd.cache_stats man in
  let imports, reuses = Fpar.worker_stats () in
  let wc =
    match Batfish.session_pool a.bf with
    | Some p -> Some (Fpar.worker_cache_stats p)
    | None -> None
  in
  let ratio = Layers.ratio in
  let nproc_all_pairs = List.assoc "Batfish.answer_all_pairs" a.stage_s in
  Layers.from_spans [ op_root ]
  @ [ ("dataplane.routes", float (Dataplane.total_routes dp));
      ("dataplane.rounds", float dp.Dataplane.rounds);
      ("dataplane.rib_mw", float (Dataplane.rib_words dp) /. 1e6);
      ("fgraph.locs", float (Fgraph.n_locs g)); ("fgraph.edges", float (Fgraph.n_edges g));
      ("fquery.start_groups_ratio", ratio (float (List.length groups)) (float (List.length starts)));
      ("fquery.memo_hit_rate", ratio (float hits) (float (hits + misses)));
      ("fcompress.ratio",
       match Fquery.compression_info fq with Some (r, _, _) -> r | None -> 1.);
      ("fcompress.passes", float (fst (Fquery.compress_stats fq)));
      ("fcompress.fallbacks", float (snd (Fquery.compress_stats fq)));
      ("par.pool_jobs",
       match Batfish.pool_stats a.bf with Some (_, jobs) -> float jobs | None -> 0.);
      ("fpar.worker_imports", float (imports - imports0));
      ("fpar.worker_reuses", float (reuses - reuses0));
      ("fpar.worker_cache_hit_rate",
       match wc with
       | Some w -> ratio (float w.Fpar.wr_hits) (float (w.Fpar.wr_hits + w.Fpar.wr_misses))
       | None -> 0.);
      ("fpar.fanout_speedup", ratio serial_all_pairs_s nproc_all_pairs);
      ("bdd.nodes", float nodes); ("bdd.global_nodes", float (snd (Bdd.global_stats ())));
      ("bdd.cache_hit_rate", ratio (float cs.Bdd.cs_hits) (float (cs.Bdd.cs_hits + cs.Bdd.cs_misses)));
      ("questions.answer_mb", float a.text_bytes /. 1e6);
      ("trace.overhead_ratio", ratio (Span.duration op_root -. untraced_op_s) untraced_op_s) ]

(* --- the workload ------------------------------------------------------------ *)

let run cfg ~profile ~scale ~loops =
  let n_variants = List.length Chaos.semantic_kinds in
  let dirs =
    Array.init n_variants (fun i -> Filename.concat cfg.out_dir (Printf.sprintf "configs/v%d" i))
  in
  let nets, setup_s =
    repeated_setup cfg ~reps:25 (fun () ->
        let nets = seeded_variants ~seed:cfg.seed ~profile ~scale in
        List.iteri (fun i (net, _) -> write_dir dirs.(i) net.Netgen.n_configs) nets;
        nets)
  in
  let net = fst (List.hd nets) in
  let failures = ref 0 and notes = ref [] in
  let note s = notes := s :: !notes in
  List.iter (fun (_, edit) -> note edit) nets;
  if not loops then note "loop detection left out: Fquery.find_loops does not finish on this topology";
  let finish a = Batfish.shutdown a.bf in
  (* timed operations: each a fresh session, as one CLI invocation is;
     operation i analyses variant i mod n_variants *)
  let last = ref None in
  let ops, _ =
    (* the previous session is released, the heap compacted and the peak
       RSS reset outside the timed region, so every operation starts from
       the same state and reports its own peak *)
    let between () =
      Option.iter finish !last;
      last := None;
      Gc.compact ();
      reset_peak_rss ()
    in
    timed_loop ~between cfg (fun i ->
        let v = i mod n_variants in
        match analyse ~domains:cfg.domains ~loops dirs.(v) with
        | a -> last := Some a; Ok (v, a.text_digest, a.stage_s, peak_rss_mb ())
        | exception e -> Error (Printexc.to_string e))
  in
  let durations = List.map fst ops in
  let oks = List.filter_map (fun (_, r) -> Result.to_option r) ops in
  List.iter (fun (_, r) -> match r with Error e -> incr failures; note ("operation raised: " ^ e) | Ok _ -> ()) ops;
  (* every operation on the same input must render the same answer *)
  List.iter
    (fun (v, d, _, _) ->
      List.iter
        (fun (v', d', _, _) ->
          if v = v' && d <> d' then (incr failures; note "answer digest differs between operations"))
        oks)
    oks;
  note
    ("operation seconds by variant: "
    ^ String.concat " "
        (List.map
           (fun (dt, r) ->
             match r with
             | Ok (v, _, _, rss) -> Printf.sprintf "v%d:%.3f(%.0fMB)" v dt rss
             | Error _ -> "error")
           ops));
  let dir = dirs.(0) in
  let samples = if cfg.tiny then 6 else 24 in
  let checked, layers, counts =
    match !last with
    | None -> (0, [], [])
    | Some a ->
      let checked, bad = check_rows ~seed:cfg.seed ~samples a in
      if bad <> [] then begin
        incr failures;
        List.iter (fun b -> note ("check: " ^ b)) bad
      end;
      let dp = Batfish.dataplane a.bf and fq = Batfish.forwarding a.bf in
      let counts =
        [ ("routes", string_of_int (Dataplane.total_routes dp));
          ("locs", string_of_int (Fgraph.n_locs (Fquery.graph fq)));
          ("edges", string_of_int (Fgraph.n_edges (Fquery.graph fq)));
          ("all_pairs_rows", string_of_int (List.length a.all_pairs.Questions.a_rows));
          ("answer_digest", a.text_digest) ]
      in
      let layers =
        if not cfg.trace then []
        else begin
          let untraced_op_s =
            median
              (List.filter_map
                 (fun (dt, r) -> match r with Ok (0, _, _, _) -> Some dt | _ -> None)
                 ops)
          in
          finish a;
          last := None;
          Gc.compact ();
          let imports0, reuses0 = Fpar.worker_stats () in
          Span.start ();
          ignore (Span.new_op ());
          let traced = ref None in
          Span.with_span ~layer:"bench" "cold.analysis" (fun () ->
              traced := Some (analyse ~domains:cfg.domains ~loops dir));
          Span.stop ();
          let t = Option.get !traced in
          let op_root =
            List.find (fun s -> s.Span.parent = 0 && s.Span.name = "cold.analysis") (Span.spans ())
          in
          let v0_digest = List.find_map (fun (v, d, _, _) -> if v = 0 then Some d else None) oks in
          if v0_digest <> Some t.text_digest then begin
            incr failures;
            note "traced answer differs from the untraced one"
          end;
          (* the same all-pairs at one domain, in a fresh session *)
          let serial_all_pairs_s =
            finish t;
            Gc.compact ();
            let bf1 = Batfish.init (Batfish.Snapshot.of_dir dir) in
            ignore (Batfish.forwarding bf1);
            let ap1, dt = time (fun () -> Batfish.answer_all_pairs bf1) in
            if ap1 <> t.all_pairs then begin
              incr failures;
              note "serial all-pairs differs from the pooled one"
            end;
            dt
          in
          let values =
            layer_values ~op_root t ~imports0 ~reuses0 ~serial_all_pairs_s ~untraced_op_s
          in
          let keep s = s.Span.op = op_root.Span.op in
          let table =
            Layers.table ~title:(Printf.sprintf "per-layer self time, %s seed %d" profile cfg.seed)
              ~keep ~op_wall:(Span.duration op_root) ~untraced_wall:untraced_op_s ()
          in
          last := Some t;
          note ("layer table:\n" ^ table);
          write_file (Filename.concat cfg.out_dir "layers.txt") table;
          Span.write_chrome_trace (Filename.concat cfg.out_dir "trace.json");
          values
        end
      in
      (checked, layers, counts)
  in
  Option.iter finish !last;
  let n = List.length ops in
  let ms = List.map (fun d -> d *. 1e3) durations in
  let op_p50 = median ms and op_p90 = percentile 90. ms in
  let peaks = List.map (fun (_, _, _, r) -> r) oks in
  let rss =
    match early_peak_rss peaks with
    | Some mb -> mb
    | None -> note "fewer operations than the peak RSS takes: median over all"; median peaks
  in
  let stage name = median (List.filter_map (fun (_, _, st, _) -> List.assoc_opt name st) oks) in
  { attempted = n;
    failed = min n !failures;
    e2e =
      [ metric "setup_s" "s" setup_s; metric "op_ms" "ms" op_p50;
        metric "peak_rss_mb" "MB" rss ];
    detail =
      [ metric "analysis_s" "s" (op_p50 /. 1e3);
        metric "analysis_p90_s" "s" (op_p90 /. 1e3);
        metric "operations_per_s" "1/s" (float n /. List.fold_left ( +. ) 0. durations);
        metric "error_rate" "ratio" (Layers.ratio (float (min n !failures)) (float n));
        metric "operations" "count" (float n);
        metric "rows_checked_by_traceroute" "count" (float checked) ]
      @ List.map
          (fun s -> metric ("stage." ^ s ^ "_s") "s" (stage s))
          [ "Snapshot.of_dir"; "Batfish.dataplane"; "Batfish.forwarding"; "Batfish.check_all";
            "Batfish.answer_all_pairs"; "Batfish.answer_multipath_consistency";
            "Questions.answer_to_string" ]
      @ if loops then [ metric "stage.Batfish.answer_loops_s" "s" (stage "Batfish.answer_loops") ] else [];
    layers = (if cfg.trace then Layers.metrics layers else []);
    counts =
      ("devices", string_of_int (Netgen.device_count net))
      :: ("variant_digests",
          String.concat "," (List.sort_uniq compare (List.map (fun (v, d, _, _) -> string_of_int v ^ ":" ^ d) oks)))
      :: ("input_digest", inputs_digest nets)
      :: counts;
    notes = List.rev !notes }
