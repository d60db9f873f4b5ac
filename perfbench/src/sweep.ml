(* Failure sweep: every single link/node failure of a small BGP fabric,
   through [Batfish.answer_failures ~k:1], the call behind
   [batfish_cli verify --failures 1]. Set-up is the base analysis (parse,
   data plane, forwarding graph); one operation is one sweep, rendered. *)

open Common

let span = Span.with_span
let max_properties = 32

let base_session cfg dir = Batfish.init ~options:{ Dataplane.default_options with domains = cfg.domains } (Batfish.Snapshot.of_dir dir)

let render answers =
  String.concat "\n" (List.map Questions.answer_to_string answers)

(* The sweep's phases through the public Failures/Apt calls, each in its
   own span: what [Failures.run] does, with the representatives re-checked
   on the session pool the same way. Returns every representative's
   outcome by scenario id, and the classes. *)
let phases bf =
  let dp = Batfish.dataplane bf and fq = Batfish.forwarding bf in
  let topo = dp.Dataplane.topo in
  let snap = Batfish.snapshot bf in
  let configs_list = Batfish.Snapshot.configs snap and find = Batfish.Snapshot.find snap in
  let properties, _ =
    span ~layer:"failures" "Failures.properties_of" (fun () ->
        Failures.properties_of ~max_properties ~topo fq)
  in
  let scenarios =
    span ~layer:"failures" "Failures.enumerate" (fun () -> Failures.enumerate ~topo ~k:1)
  in
  let g = Fquery.graph fq in
  let apt = span ~layer:"apt" "Apt.try_build" (fun () -> Apt.try_build ~max_atoms:4096 g) in
  let anchors =
    List.sort_uniq compare
      (List.concat_map (fun p -> [ fst p.Failures.pr_src; p.Failures.pr_dst ]) properties)
  in
  let restrict =
    span ~layer:"fquery" "Fquery.to_delivered" (fun () ->
        let man = Pktset.man (Fquery.env fq) in
        List.fold_left
          (fun acc p ->
            let loc =
              match p.Failures.pr_src with
              | n, Some i -> Fgraph.Src (n, i)
              | n, None -> Fgraph.Fwd n
            in
            match Fgraph.loc_id g loc with
            | None -> acc
            | Some id ->
              let sets = Fquery.to_delivered fq ~at:p.Failures.pr_dst () in
              Bdd.bor man acc (Bdd.band man sets.(id) (Fquery.clean fq)))
          Bdd.bot properties)
  in
  let classes =
    span ~layer:"failures" "Failures.classify" (fun () ->
        Failures.classify ~apt ~g ~anchors ~restrict scenarios)
  in
  let reps = Array.of_list (List.map fst classes) in
  let options = { Dataplane.default_options with domains = 1; pool = None } in
  let env = Dp_env.empty in
  let check qb sc =
    (sc.Failures.sc_id,
     Failures.check_scenario ~options ~env ~configs_list ~find ~base_dp:dp ~properties qb sc)
  in
  let outcomes =
    span ~layer:"failures" "Failures.check_scenario" (fun () ->
        match Batfish.session_pool bf with
        | Some pool when Array.length reps > 1 ->
          let spec, fp = Fquery.spec_with_fingerprint fq in
          Par.map_dynamic_init ~pool ~domains:(Par.Pool.size pool)
            ~init:(fun () ->
              Fpar.worker_import ~cmode:(Fquery.compress_mode fq) ~fp ~spec ~dp ~configs:find ())
            check reps
        | _ -> Array.map (check fq) reps)
  in
  (Array.to_list outcomes, classes, properties, List.length scenarios, apt)

(* Do the phases reproduce the report? Same properties, same classes and,
   for every scenario, its representative's outcome. *)
let phases_agree (report : Failures.report) (outcomes, classes, properties, enumerated, _) =
  properties = report.Failures.rp_properties
  && enumerated = report.Failures.rp_enumerated
  && List.length classes = report.Failures.rp_simulated
  && List.for_all
       (fun (r : Failures.result) ->
         List.assoc_opt r.Failures.r_rep outcomes = Some r.Failures.r_outcome)
       report.Failures.rp_results

(* Sampled representatives against a cold from-scratch recompute. *)
let check_cold ~seed ~samples bf (report : Failures.report) =
  let snap = Batfish.snapshot bf in
  let cold =
    Failures.cold_context ~options:{ Dataplane.default_options with domains = 1 }
      ~env:Dp_env.empty ~configs_list:(Batfish.Snapshot.configs snap)
      ~find:(Batfish.Snapshot.find snap) ()
  in
  let reps =
    Array.of_list
      (List.filter
         (fun (r : Failures.result) -> r.Failures.r_rep = r.Failures.r_scenario.Failures.sc_id)
         report.Failures.rp_results)
  in
  let rng = Rng.create (seed * 31 + 5) in
  Rng.shuffle rng reps;
  let picked = Array.to_list (Array.sub reps 0 (min samples (Array.length reps))) in
  let bad =
    List.filter_map
      (fun (r : Failures.result) ->
        let c = Failures.cold_outcome cold ~properties:report.Failures.rp_properties r.Failures.r_scenario in
        if c = r.Failures.r_outcome then None
        else Some ("warm outcome differs from cold for " ^ Failures.scenario_to_string r.Failures.r_scenario))
      picked
  in
  (List.map (fun (r : Failures.result) -> string_of_int r.Failures.r_scenario.Failures.sc_id) picked, bad)

(* The input is the generated network itself, the same for every seed: the
   sweep's cost follows the atom partition, which a single edit can move by
   half, far past any useful bound. The seed picks which representatives
   are re-checked cold. *)
let run cfg ~profile ~scale =
  let dir = Filename.concat cfg.out_dir "configs" in
  let session = ref None in
  let open_session () =
    Option.iter Batfish.shutdown !session;
    let bf = base_session cfg dir in
    ignore (Batfish.dataplane bf);
    ignore (Batfish.forwarding bf);
    session := Some bf;
    bf
  in
  (* set-up: the network generated and written, and its base analysis;
     each later operation gets a fresh one outside the timed region *)
  let net, setup_s =
    repeated_setup cfg ~reps:25 (fun () ->
        let net = (Common.profile profile).Netgen.p_make scale in
        write_dir dir net.Netgen.n_configs;
        ignore (open_session ());
        net)
  in
  let failures = ref 0 and notes = ref [] in
  let note s = notes := s :: !notes in
  let last = ref None in
  let ops, _ =
    let between () =
      if !last <> None then ignore (open_session ());
      Gc.compact ();
      reset_peak_rss ()
    in
    timed_loop ~between cfg (fun _ ->
        let bf = Option.get !session in
        match Batfish.answer_failures ~k:1 bf with
        | report, answers ->
          let text = render answers in
          last := Some (report, bf);
          Ok (digest text, peak_rss_mb ())
        | exception e -> Error (Printexc.to_string e))
  in
  let durations = List.map fst ops in
  let oks = List.filter_map (fun (_, r) -> Result.to_option r) ops in
  note
    ("operation seconds (peak RSS): "
    ^ String.concat " " (List.map (fun (dt, r) ->
          match r with Ok (_, rss) -> Printf.sprintf "%.3f(%.0fMB)" dt rss | Error _ -> "error") ops));
  List.iter (fun (_, r) -> match r with Error e -> incr failures; note ("operation raised: " ^ e) | Ok _ -> ()) ops;
  (match oks with
  | (d0, _) :: rest ->
    List.iter (fun (d, _) -> if d <> d0 then (incr failures; note "sweep answer differs between operations")) rest
  | [] -> ());
  let samples = if cfg.tiny then 3 else 8 in
  let checked, counts, layers =
    match !last with
    | None -> ([], [], [])
    | Some (report, bf) ->
      let checked, bad = check_cold ~seed:cfg.seed ~samples bf report in
      if bad <> [] then begin
        incr failures;
        List.iter (fun b -> note ("check: " ^ b)) bad
      end;
      if report.Failures.rp_inconclusive <> [] then
        note (Printf.sprintf "%d inconclusive scenario(s)" (List.length report.Failures.rp_inconclusive));
      let counts =
        [ ("enumerated", string_of_int report.Failures.rp_enumerated);
          ("simulated", string_of_int report.Failures.rp_simulated);
          ("pruned", string_of_int report.Failures.rp_pruned);
          ("properties", string_of_int (List.length report.Failures.rp_properties));
          ("atoms", string_of_int report.Failures.rp_atoms);
          ("answer_digest", match oks with (d, _) :: _ -> d | [] -> "");
          ("checked_sample", String.concat "," checked) ]
      in
      let layers =
        if not cfg.trace then []
        else begin
          let untraced_op_s = median durations in
          (* a fresh base session, so the traced sweep starts as cold as the
             untraced ones did *)
          let bf = open_session () in
          Gc.compact ();
          let imports0, reuses0 = Fpar.worker_stats () in
          let jobs0 = match Batfish.pool_stats bf with Some (_, j) -> j | None -> 0 in
          Span.start ();
          ignore (Span.new_op ());
          let result = ref None in
          span ~layer:"bench" "failures.sweep" (fun () -> result := Some (phases bf));
          Span.stop ();
          let ((_, classes, _, enumerated, apt) as ph) = Option.get !result in
          if not (phases_agree report ph) then begin
            incr failures;
            note "traced phases disagree with Failures.run's report"
          end;
          let op_root =
            List.find (fun s -> s.Span.parent = 0 && s.Span.name = "failures.sweep") (Span.spans ())
          in
          let fq = Batfish.forwarding bf and dp = Batfish.dataplane bf in
          let man = Pktset.man (Fquery.env fq) in
          let nodes, _, _ = Bdd.stats man in
          let cs = Bdd.cache_stats man in
          let imports, reuses = Fpar.worker_stats () in
          let ratio = Layers.ratio in
          let simulated = List.length classes in
          let values =
            Layers.from_spans [ op_root ]
            @ [ ("dataplane.routes", float (Dataplane.total_routes dp));
                ("dataplane.rounds", float dp.Dataplane.rounds);
                ("dataplane.rib_mw", float (Dataplane.rib_words dp) /. 1e6);
                ("fgraph.locs", float (Fgraph.n_locs (Fquery.graph fq)));
                ("fgraph.edges", float (Fgraph.n_edges (Fquery.graph fq)));
                ("par.pool_jobs",
                 float ((match Batfish.pool_stats bf with Some (_, j) -> j | None -> 0) - jobs0));
                ("fpar.worker_imports", float (imports - imports0));
                ("fpar.worker_reuses", float (reuses - reuses0));
                ("bdd.nodes", float nodes); ("bdd.global_nodes", float (snd (Bdd.global_stats ())));
                ("bdd.cache_hit_rate",
                 ratio (float cs.Bdd.cs_hits) (float (cs.Bdd.cs_hits + cs.Bdd.cs_misses)));
                ("failures.enumerated", float enumerated);
                ("failures.simulated", float simulated);
                ("failures.prune_yield", ratio (float (enumerated - simulated)) (float enumerated));
                ("apt.atoms", float (match apt with Some a -> Apt.atom_count a | None -> 0));
                ("trace.overhead_ratio",
                 ratio (Span.duration op_root -. untraced_op_s) untraced_op_s) ]
          in
          let keep s = s.Span.op = op_root.Span.op in
          let table =
            Layers.table ~title:(Printf.sprintf "per-layer self time, %s k=1 seed %d" profile cfg.seed)
              ~keep ~op_wall:(Span.duration op_root) ~untraced_wall:untraced_op_s ()
          in
          note ("layer table:\n" ^ table);
          write_file (Filename.concat cfg.out_dir "layers.txt") table;
          Span.write_chrome_trace (Filename.concat cfg.out_dir "trace.json");
          values
        end
      in
      (checked, counts, layers)
  in
  Option.iter Batfish.shutdown !session;
  let n = List.length ops in
  let ms = List.map (fun d -> d *. 1e3) durations in
  let op_p50 = median ms in
  let peaks = List.map snd oks in
  let rss =
    match early_peak_rss peaks with
    | Some mb -> mb
    | None -> note "fewer operations than the peak RSS takes: median over all"; median peaks
  in
  { attempted = n;
    failed = min n !failures;
    e2e =
      [ metric "setup_s" "s" setup_s; metric "op_ms" "ms" op_p50;
        metric "peak_rss_mb" "MB" rss ];
    detail =
      [ metric "sweep_s" "s" (op_p50 /. 1e3);
        metric "sweep_p90_s" "s" (percentile 90. ms /. 1e3);
        metric "operations_per_s" "1/s" (float n /. List.fold_left ( +. ) 0. durations);
        metric "error_rate" "ratio" (Layers.ratio (float (min n !failures)) (float n));
        metric "operations" "count" (float n);
        metric "representatives_checked_cold" "count" (float (List.length checked)) ];
    layers = (if cfg.trace then Layers.metrics layers else []);
    counts = ("devices", string_of_int (Netgen.device_count net)) :: counts;
    notes = List.rev !notes }
