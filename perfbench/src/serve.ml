(* What-if daemon: [batfish_cli serve] on a Unix socket, driven by
   closed-loop clients that mix read queries with seeded single-file
   updates against the loaded base snapshot.

   Each client sends its next request only after the previous response
   arrived. About one request in ten is an [update]; a client's later
   queries go half to the base and half to the snapshot its latest update
   returned, and it unloads its previous edited snapshot, so the daemon's
   memory stays flat. Every update carries a client-unique comment line, so
   no two clients ever share an edited snapshot and an unload never pulls
   one out from under another client. *)

open Common

type kind = All_pairs | Multipath | Loops | Routes of string | Reach of string * string

let query_kinds = [ "all_pairs"; "multipath"; "loops"; "routes"; "reachability" ]

let kind_name = function
  | All_pairs -> "all_pairs"
  | Multipath -> "multipath"
  | Loops -> "loops"
  | Routes _ -> "routes"
  | Reach _ -> "reachability"

type request =
  | Query of string * kind  (** snapshot fingerprint, question *)
  | Update of string * (string * string)  (** base fingerprint, edited file *)
  | Unload of string

(* One completed request as the client saw it. *)
type sample = {
  req : request;
  sent_at : float;  (** wall clock when the request was sent *)
  latency_s : float;
  ok : bool;
  response : string option;  (** kept for failed requests, to report them *)
}

(* A fixed-size uniform sample of a stream (reservoir sampling), drawn with
   its own seeded generator so the request sequence does not depend on it. *)
type reservoir = { mutable seen : int; slots : (request * string) option array }

let reservoir k = { seen = 0; slots = Array.make k None }

let offer rng r x =
  r.seen <- r.seen + 1;
  let k = Array.length r.slots in
  if r.seen <= k then r.slots.(r.seen - 1) <- Some x
  else
    let j = Rng.int rng r.seen in
    if j < k then r.slots.(j) <- Some x

let contents r = List.filter_map Fun.id (Array.to_list r.slots)

let obj kvs = Sjson.Obj kvs
let str s = Sjson.Str s

let request_line ~id req =
  let params, meth =
    match req with
    | Query (fp, k) ->
      let q = [ ("snapshot", str fp); ("question", str (kind_name k)) ] in
      let extra =
        match k with
        | Routes node -> [ ("node", str node) ]
        | Reach (src, dst) -> [ ("src", str src); ("dst_prefix", str dst) ]
        | All_pairs | Multipath | Loops -> []
      in
      (q @ extra, "query")
    | Update (fp, (name, text)) ->
      ([ ("snapshot", str fp); ("files", obj [ (name, str text) ]) ], "update")
    | Unload fp -> ([ ("snapshot", str fp) ], "unload")
  in
  Sjson.to_string (obj [ ("id", Sjson.Int id); ("method", str meth); ("params", obj params) ])

let load_line files =
  Sjson.to_string
    (obj
       [ ("id", Sjson.Int 0); ("method", str "load");
         ("params", obj [ ("files", obj (List.map (fun (n, t) -> (n, str t)) files)) ]) ])

(* --- daemon process ------------------------------------------------------- *)

type daemon = { pid : int; socket : string }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Some (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
  | exception Unix.Unix_error _ -> Unix.close fd; None

let rec connect_wait ?(tries = 3000) path =
  match connect path with
  | Some c -> c
  | None when tries > 0 -> Thread.delay 0.01; connect_wait ~tries:(tries - 1) path
  | None -> failwith ("daemon did not start listening on " ^ path)

let call (ic, oc) line =
  output_string oc line;
  output_char oc '\n';
  flush oc;
  input_line ic

let close_conn (ic, _) = close_in_noerr ic

(* Daemons started and not yet reaped; killed at exit should a run end
   early, so none outlives the benchmark. *)
let live = ref []

let start_daemon cfg =
  let socket = Filename.concat cfg.out_dir "d.sock" in
  (try Sys.remove socket with Sys_error _ -> ());
  let log = Unix.openfile (Filename.concat cfg.out_dir "daemon.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process cfg.cli
      [| cfg.cli; "serve"; "--socket"; socket; "--domains"; string_of_int cfg.domains |]
      null log log
  in
  Unix.close log;
  Unix.close null;
  live := pid :: !live;
  { pid; socket }

let stop_daemon d =
  (match connect d.socket with
  | Some c -> (try ignore (call c "{\"method\":\"shutdown\"}") with _ -> ()); close_conn c
  | None -> ());
  ignore (Unix.waitpid [] d.pid);
  live := List.filter (fun p -> p <> d.pid) !live

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

(* The value at [path] inside a parsed response. *)
let field path json =
  List.fold_left (fun acc k -> Option.bind acc (Sjson.member k)) (Some json) path

(* --- the request mix ---------------------------------------------------------- *)

type universe = {
  nodes : string array;
  hot : (string * string) array;  (** reachability pairs most requests hit *)
  srcs : string array;
  dsts : string array;
  files : (string * string) array;
}

let universe ~seed files =
  let snap = Batfish.Snapshot.of_texts files in
  let nodes = Array.of_list (List.sort compare (Batfish.Snapshot.node_names snap)) in
  let dsts =
    Batfish.Snapshot.configs snap
    |> List.concat_map (fun c ->
           List.filter_map
             (fun i ->
               Option.map
                 (fun (ip, len) -> Prefix.to_string (Prefix.make ip len))
                 i.Vi.if_address)
             c.Vi.interfaces)
    |> List.sort_uniq compare |> Array.of_list
  in
  let rng = Rng.create (seed * 131 + 7) in
  let hot = Array.init 32 (fun _ -> (Rng.pick rng nodes, Rng.pick rng dsts)) in
  { nodes; hot; srcs = nodes; dsts; files = Array.of_list files }

(* A client's next request. [current] is its latest edited snapshot;
   [updates] counts the client's updates so far. Its edits cycle through
   the semantic edit kinds, and through the files in the client's seeded
   order [files] (each update starts at the next file and takes the first
   one that accepts the edit), so cheap and expensive updates — comment
   lines against BGP neighbors, leaves against spines — come in about the
   same proportion on every seed; the seed picks the order and the
   positions. *)
let next_request rng u ~files ~base ~current ~client ~seq ~updates =
  let target () =
    match current with Some fp when Rng.bool rng -> fp | _ -> base
  in
  let r = Rng.int rng 100 in
  if r < 10 then begin
    let kinds = Array.of_list Chaos.semantic_kinds in
    let rec edit i =
      if i = Array.length kinds then Rng.pick rng u.files
      else
        let kind = kinds.((updates + client + i) mod Array.length kinds) in
        let n = Array.length files in
        match
          Seq.find_map
            (fun j ->
              let name, text = files.((updates + j) mod n) in
              Option.map (fun (text', _) -> (name, text')) (Chaos.semantic_edit ~rng ~kind text))
            (Seq.init n Fun.id)
        with
        | Some e -> e
        | None -> edit (i + 1)
    in
    let name, text = edit 0 in
    Update (base, (name, Printf.sprintf "%s\n! what-if client %d request %d\n" text client seq))
  end
  else
    let k =
      if r < 22 then All_pairs
      else if r < 34 then Multipath
      else if r < 46 then Loops
      else if r < 68 then
        Routes (if Rng.int rng 10 < 8 then u.nodes.(Rng.int rng (min 6 (Array.length u.nodes))) else Rng.pick rng u.nodes)
      else if Rng.int rng 10 < 8 then (let s, d = Rng.pick rng u.hot in Reach (s, d))
      else Reach (Rng.pick rng u.srcs, Rng.pick rng u.dsts)
    in
    Query (target (), k)

(* Requests in the order they were sent, across all clients: what the
   traced run replays in-process. *)
let sent = ref []
let sent_mutex = Mutex.create ()

let record_sent line =
  Mutex.lock sent_mutex;
  sent := line :: !sent;
  Mutex.unlock sent_mutex

type update_stats = {
  mutable u_n : int;
  mutable u_reparsed : int;
  mutable u_simulated : int;
  mutable u_reused : int;
  mutable u_rebuilt : int;
}

let ustats = { u_n = 0; u_reparsed = 0; u_simulated = 0; u_reused = 0; u_rebuilt = 0 }
let ustats_mutex = Mutex.create ()

(* Edited snapshot fingerprint -> its edited file, for the answer check. *)
let edited : (string, string * string) Hashtbl.t = Hashtbl.create 64

(* The daemon's memory is read after a fixed number of completed requests
   (queries and updates, all clients), not at the end of the run, so the
   figure does not grow with throughput: the daemon never frees BDD nodes,
   and a faster daemon would otherwise read as a bigger one. *)
let rss_after_requests = 500
let completed = Atomic.make 0
let rss_sample = ref None

(* Per client, the answers checked against a fresh session are a uniform
   sample over the whole run of its successful queries on the base, and a
   separate one of those on its edited snapshots. *)
let checked_per_snapshot_kind = 3

let client_loop cfg d u ~base ~deadline ~client =
  let conn = connect_wait d.socket in
  let rng = Rng.create ((cfg.seed * 1000) + client) in
  let pick = Rng.create ((cfg.seed * 7717) + client + 3) in
  let on_base = reservoir checked_per_snapshot_kind
  and on_edited = reservoir checked_per_snapshot_kind in
  let files = Array.copy u.files in
  Rng.shuffle (Rng.create ((cfg.seed * 4513) + client)) files;
  let current = ref None and updates = ref 0 in
  let samples = ref [] in
  let rec go seq =
    let stop =
      match cfg.max_ops with
      | Some m -> seq >= m
      | None -> Unix.gettimeofday () >= deadline
    in
    if not stop then begin
      let req = next_request rng u ~files ~base ~current:!current ~client ~seq ~updates:!updates in
      (match req with Update _ -> incr updates | Query _ | Unload _ -> ());
      let line = request_line ~id:seq req in
      record_sent line;
      let t0 = Unix.gettimeofday () in
      let resp = try Some (call conn line) with End_of_file | Sys_error _ -> None in
      let latency_s = Unix.gettimeofday () -. t0 in
      let ok =
        match resp with
        | Some r -> String.starts_with ~prefix:"{\"ok\":true" r
        | None -> false
      in
      (match (req, resp) with
      | Query (fp, _), Some r when ok -> offer pick (if fp = base then on_base else on_edited) (req, r)
      | _ -> ());
      if resp <> None && Atomic.fetch_and_add completed 1 + 1 = rss_after_requests then
        rss_sample := Some (peak_rss_mb ~pid:(string_of_int d.pid) ());
      (match (req, resp) with
      | Update (_, file), Some r when ok -> (
        match Sjson.parse r with
        | Ok json -> (
          match Option.bind (field [ "result"; "fingerprint" ] json) Sjson.get_string with
          | Some fp' ->
            Mutex.lock ustats_mutex;
            Hashtbl.replace edited fp' file;
            ustats.u_n <- ustats.u_n + 1;
            let get k = Option.value ~default:0 (Option.bind (field [ "result"; k ] json) Sjson.get_int) in
            ustats.u_reparsed <- ustats.u_reparsed + get "files_reparsed";
            ustats.u_simulated <- ustats.u_simulated + get "nodes_simulated";
            ustats.u_reused <- ustats.u_reused + get "nodes_reused";
            (match Option.bind (field [ "result"; "forwarding_rebuilt" ] json) Sjson.get_bool with
            | Some true -> ustats.u_rebuilt <- ustats.u_rebuilt + 1
            | _ -> ());
            Mutex.unlock ustats_mutex;
            let previous = !current in
            current := Some fp';
            (* drop this client's previous edited snapshot *)
            Option.iter
              (fun fp ->
                if fp <> base && fp <> fp' then begin
                  let l = request_line ~id:seq (Unload fp) in
                  record_sent l;
                  ignore (call conn l)
                end)
              previous
          | None -> ())
        | Error _ -> ())
      | _ -> ());
      samples := { req; sent_at = t0; latency_s; ok; response = (if ok then None else resp) } :: !samples;
      if resp <> None then go (seq + 1)
    end
  in
  go 0;
  close_conn conn;
  (List.rev !samples, contents on_base @ contents on_edited)

(* --- checks: sampled answers against a fresh serial session ----------- *)

let answer_json (a : Questions.answer) =
  Sjson.Obj
    [ ("title", str a.Questions.a_title);
      ("header", Sjson.Arr (List.map str a.Questions.a_header));
      ("rows", Sjson.Arr (List.map (fun row -> Sjson.Arr (List.map str row)) a.Questions.a_rows)) ]

let fresh_answer bf = function
  | All_pairs -> Batfish.answer_all_pairs bf
  | Multipath -> Batfish.answer_multipath_consistency bf
  | Loops -> Batfish.answer_loops bf
  | Routes node -> Batfish.answer_routes ~node bf
  | Reach (src, dst) ->
    Batfish.answer_reachability bf ~src:(src, None) ~dst_ip:(Prefix.of_string dst) ()

let check_samples ~base ~base_files checked =
  let sessions = Hashtbl.create 4 in
  let session fp =
    match Hashtbl.find_opt sessions fp with
    | Some bf -> bf
    | None ->
      let files =
        if fp = base then base_files
        else
          let name, text = Hashtbl.find edited fp in
          List.map (fun (n, t) -> if n = name then (n, text) else (n, t)) base_files
      in
      let bf = Batfish.init (Batfish.Snapshot.of_texts files) in
      Hashtbl.replace sessions fp bf;
      bf
  in
  List.filter_map
    (fun (req, r) ->
      match req with
      | Query (fp, k) -> (
        let expected = Sjson.to_string (Sjson.Arr [ answer_json (fresh_answer (session fp) k) ]) in
        match Option.bind (Result.to_option (Sjson.parse r)) (field [ "result"; "answers" ]) with
        | Some got when Sjson.to_string got = expected -> None
        | got ->
          let rows v =
            match Option.bind v (fun v -> Option.bind (Sjson.get_arr v) (fun l -> match l with a :: _ -> Some a | [] -> None)) with
            | Some a -> (match Option.bind (Sjson.member "rows" a) Sjson.get_arr with Some r -> List.length r | None -> -1)
            | None -> -1
          in
          Some
            (Printf.sprintf "%s on %s%s differs from a fresh serial session (%d rows served, %d expected)"
               (kind_name k) fp
               (match Hashtbl.find_opt edited fp with
                | Some (name, _) -> " (edited " ^ name ^ ")"
                | None -> " (base)")
               (rows got) (rows (Result.to_option (Sjson.parse expected)))))
      | Update _ | Unload _ -> None)
    checked

(* --- in-process replay (traced run) ------------------------------------------- *)

let method_of line =
  match Sjson.parse line with
  | Ok j -> (
    match Option.bind (Sjson.member "method" j) Sjson.get_string with
    | Some "query" ->
      "query." ^ Option.value ~default:"?" (Option.bind (field [ "params"; "question" ] j) Sjson.get_string)
    | Some m -> m
    | None -> "?")
  | Error _ -> "?"

(* Replay [lines] through a fresh in-process service, one at a time,
   alternating traced and untraced requests so both halves run under the
   same conditions. A traced request is its own operation: a root span, a
   span around [Service.handle_line] (layer "update" for updates, "service"
   otherwise) and spans around decoding and re-encoding the response with
   [Sjson]. Returns per-line (method, handle seconds, traced, ok). *)
let replay cfg lines =
  let svc = Service.create ~domains:cfg.domains ~auto:false () in
  List.mapi
    (fun i (line, meth) ->
      let traced = i mod 2 = 0 in
      Span.enabled := traced;
      ignore (Span.new_op ());
      let resp, dt =
        Span.with_span ~layer:"bench" "request" (fun () ->
            let resp, dt =
              time (fun () ->
                  Span.with_span ~layer:(if meth = "update" then "update" else "service")
                    ("Service.handle_line " ^ meth) (fun () -> Service.handle_line svc line))
            in
            (match Span.with_span ~layer:"sjson" "Sjson.parse" (fun () -> Sjson.parse resp) with
            | Ok v -> ignore (Span.with_span ~layer:"sjson" "Sjson.to_string" (fun () -> Sjson.to_string v))
            | Error _ -> ());
            (resp, dt))
      in
      Span.enabled := true;
      (meth, dt, traced, String.starts_with ~prefix:"{\"ok\":true" resp))
    lines

(* --- the workload ------------------------------------------------------------------ *)

let run cfg ~profile ~scale =
  let net = (Common.profile profile).Netgen.p_make scale in
  let files = net.Netgen.n_configs in
  let u = universe ~seed:cfg.seed files in
  let notes = ref [] in
  let note s = notes := s :: !notes in
  let load = load_line files in
  sent := [];
  Hashtbl.reset edited;
  ustats.u_n <- 0; ustats.u_reparsed <- 0; ustats.u_simulated <- 0; ustats.u_reused <- 0;
  ustats.u_rebuilt <- 0;
  Atomic.set completed 0;
  rss_sample := None;
  let prev = ref None in
  let (d, base), setup_s =
    repeated_setup cfg ~reps:7 (fun () ->
        Option.iter stop_daemon !prev;
        let d = start_daemon cfg in
        prev := Some d;
        let c = connect_wait d.socket in
        let r = call c load in
        close_conn c;
        match
          Option.bind (Result.to_option (Sjson.parse r)) (fun j ->
              Option.bind (field [ "result"; "fingerprint" ] j) Sjson.get_string)
        with
        | Some fp -> (d, fp)
        | None -> failwith ("load failed: " ^ r))
  in
  sent := [ load ];
  let t_start = Unix.gettimeofday () in
  let deadline = t_start +. cfg.seconds in
  let results = Array.make cfg.clients ([], []) in
  let threads =
    List.init cfg.clients (fun client ->
        Thread.create (fun () -> results.(client) <- client_loop cfg d u ~base ~deadline ~client) ())
  in
  List.iter Thread.join threads;
  let measured_s = Unix.gettimeofday () -. t_start in
  let samples = List.concat_map fst (Array.to_list results) in
  let to_check = List.concat_map snd (Array.to_list results) in
  (* every request as its client saw it, for a look at the run over time *)
  write_file (Filename.concat cfg.out_dir "requests.tsv")
    (String.concat ""
       ("sent_s\trequest\tsnapshot\tlatency_ms\tok\n"
       :: List.map
            (fun s ->
              let what, snap =
                match s.req with
                | Query (fp, k) -> (kind_name k, if fp = base then "base" else "edited")
                | Update (_, (name, _)) -> ("update " ^ name, "base")
                | Unload _ -> ("unload", "edited")
              in
              Printf.sprintf "%.4f\t%s\t%s\t%.3f\t%b\n" (s.sent_at -. t_start) what snap
                (s.latency_s *. 1e3) s.ok)
            (List.sort (fun a b -> compare a.sent_at b.sent_at) samples)));
  let stats =
    let c = connect_wait d.socket in
    let r = call c "{\"method\":\"stats\"}" in
    close_conn c;
    Result.to_option (Sjson.parse r)
  in
  let stat k =
    float (Option.value ~default:0 (Option.bind stats (fun j -> Option.bind (field [ "result"; k ] j) Sjson.get_int)))
  in
  let daemon_rss =
    match !rss_sample with
    | Some mb -> mb
    | None ->
      note (Printf.sprintf "fewer than %d requests completed: daemon peak RSS read at the end" rss_after_requests);
      peak_rss_mb ~pid:(string_of_int d.pid) ()
  in
  stop_daemon d;
  let n = List.length samples in
  let errors = List.length (List.filter (fun s -> not s.ok) samples) in
  if errors > 0 then begin
    note (Printf.sprintf "%d request(s) answered ok:false or dropped" errors);
    List.iter
      (fun s ->
        if not s.ok then
          note
            (Printf.sprintf "failed %s: %s"
               (match s.req with
                | Query (fp, k) -> kind_name k ^ " on " ^ fp
                | Update (fp, (name, _)) -> "update of " ^ name ^ " on " ^ fp
                | Unload fp -> "unload of " ^ fp)
               (match s.response with
                | Some r -> String.sub r 0 (min 300 (String.length r))
                | None -> "connection closed")))
      samples
  end;
  let bad = check_samples ~base ~base_files:files to_check in
  List.iter (fun b -> note ("check: " ^ b)) bad;
  let checked = List.length to_check in
  let checked_edited =
    List.length (List.filter (function Query (fp, _), _ -> fp <> base | _ -> false) to_check)
  in
  let lat pred = List.filter_map (fun s -> if s.ok && pred s.req then Some (s.latency_s *. 1e3) else None) samples in
  let q = lat (function Query _ -> true | _ -> false) in
  let upd = lat (function Update _ -> true | _ -> false) in
  let query_mean = List.fold_left ( +. ) 0. q /. float (List.length q) in
  let q_tail_p, q_tail = tail q and u_tail_p, u_tail = tail upd in
  let count pred = List.length (List.filter (fun s -> pred s.req) samples) in
  let per_kind =
    List.map
      (fun k -> ("requests." ^ k, string_of_int (count (function Query (_, q) -> kind_name q = k | _ -> false))))
      query_kinds
    @ [ ("requests.update", string_of_int (count (function Update _ -> true | _ -> false))) ]
  in
  let layers =
    if not cfg.trace then []
    else begin
      let lines = List.rev !sent in
      let lines = List.map (fun l -> (l, method_of l)) lines in
      Span.start ();
      let replayed = replay cfg lines in
      Span.stop ();
      let roots = List.filter (fun s -> s.Span.parent = 0 && s.Span.name = "request") (Span.spans ()) in
      let handle ~traced pred =
        List.filter_map (fun (m, dt, t, _) -> if t = traced && pred m then Some (dt *. 1e3) else None) replayed
      in
      let is_query m = String.starts_with ~prefix:"query." m in
      let untraced_q = median (handle ~traced:false is_query) and traced_q = median (handle ~traced:true is_query) in
      if List.exists (fun (_, _, _, ok) -> not ok) replayed then note "replayed request answered ok:false";
      let methods = List.sort_uniq compare (List.map snd lines) in
      let handle_lines =
        List.map
          (fun m ->
            let all = handle ~traced:true (( = ) m) @ handle ~traced:false (( = ) m) in
            Printf.sprintf "service.handle_ms %-22s p50 %9.3f ms  (n=%d)" m (median all) (List.length all))
          methods
      in
      let sj name =
        median (List.filter_map (fun s -> if s.Span.name = name then Some (Span.duration s *. 1e3) else None) (Span.spans ()))
      in
      let client_q = median q in
      let traced_wall = List.fold_left (fun acc r -> acc +. Span.duration r) 0. roots in
      let table =
        Layers.table
          ~title:(Printf.sprintf "per-layer self time, in-process replay of %d requests (%d traced), seed %d"
                    (List.length lines) (List.length roots) cfg.seed)
          ~keep:(fun _ -> true) ~op_wall:traced_wall ()
        ^ String.concat "\n" handle_lines
        ^ Printf.sprintf
            "\nquery handle p50: untraced %.3f ms, traced %.3f ms; client-observed query p50 %.3f ms, transport %.3f ms\nsjson.decode_ms p50 %.3f, sjson.encode_ms p50 %.3f\n"
            untraced_q traced_q client_q (client_q -. untraced_q) (sj "Sjson.parse") (sj "Sjson.to_string")
      in
      note ("layer table:\n" ^ table);
      write_file (Filename.concat cfg.out_dir "layers.txt") table;
      Span.write_chrome_trace (Filename.concat cfg.out_dir "trace.json");
      let ratio = Layers.ratio in
      let un = float ustats.u_n in
      Layers.from_spans roots
      @ [ ("update.files_reparsed", ratio (float ustats.u_reparsed) un);
          ("update.nodes_simulated", ratio (float ustats.u_simulated) un);
          ("update.nodes_reused_ratio",
           ratio (float ustats.u_reused) (float (ustats.u_reused + ustats.u_simulated)));
          ("update.forwarding_rebuilt_ratio", ratio (float ustats.u_rebuilt) un);
          ("service.coalesce_ratio", ratio (stat "coalesced") (stat "computed" +. stat "coalesced"));
          ("service.evictions", stat "evictions");
          ("service.transport_share", ratio (client_q -. untraced_q) client_q);
          ("bdd.global_nodes", float (snd (Bdd.global_stats ())));
          ("trace.overhead_ratio", ratio (traced_q -. untraced_q) untraced_q) ]
    end
  in
  let failed = errors + List.length bad in
  { attempted = n;
    failed;
    e2e =
      (* the mean, not the median: the median lands on the cheap point
         queries and hardly moves when a whole-network question changes;
         the mean weighs every question by its cost *)
      [ metric "setup_s" "s" setup_s; metric "op_ms" "ms" query_mean;
        metric "peak_rss_mb" "MB" daemon_rss ];
    detail =
      [ metric "query_p50_ms" "ms" (median q);
        metric "query_mean_ms" "ms" query_mean ]
      @ List.map
          (fun k ->
            metric ("query_p50_ms." ^ k) "ms"
              (median (lat (function Query (_, q) -> kind_name q = k | _ -> false))))
          query_kinds
      @ [
        metric (Printf.sprintf "query_tail_ms(p%.0f)" q_tail_p) "ms" q_tail;
        metric "update_p50_ms" "ms" (median upd);
        metric (Printf.sprintf "update_tail_ms(p%.0f)" u_tail_p) "ms" u_tail;
        metric "throughput_rps" "1/s" (float n /. measured_s);
        metric "error_rate" "ratio" (Layers.ratio (float (min n failed)) (float n));
        metric "queries" "count" (float (List.length q));
        metric "updates" "count" (float (List.length upd));
        metric "responses_checked" "count" (float checked);
        metric "responses_checked_on_edited" "count" (float checked_edited);
        metric "client_process_peak_rss_mb" "MB" (peak_rss_mb ()) ];
    layers = (if cfg.trace then Layers.metrics layers else []);
    counts = ("devices", string_of_int (Netgen.device_count net)) :: per_kind;
    notes = List.rev !notes }
