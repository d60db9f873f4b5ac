(* Shared pieces of every workload: the run configuration, the environment
   record, order statistics, the timed loop and result reporting. *)

type config = {
  seed : int;
  seconds : float;  (** measurement budget of the timed region *)
  trace : bool;
  nproc : int;
  domains : int;  (** engine domains; never more than [nproc] *)
  clients : int;  (** closed-loop load generators (serve only) *)
  out_dir : string;  (** every file the run writes lives under here *)
  cli : string;  (** path of the built batfish_cli executable *)
  commit : string;
  tiny : bool;  (** self-test sizes *)
  max_ops : int option;  (** stop after this many operations (self-test) *)
}

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

(* What a workload hands back. [e2e] are the end-to-end metrics in
   BENCHMARK.json; [detail] the same measurements under the names used in
   the benchmark's documentation plus anything else worth printing;
   [layers] the per-layer metrics of a traced run; [counts] the exact
   counts the self-test compares across runs. *)
type outcome = {
  attempted : int;
  failed : int;
  e2e : metric list;
  detail : metric list;
  layers : metric list;
  counts : (string * string) list;
  notes : string list;
}

(* --- environment ---------------------------------------------------------- *)

(* CPUs this process may run on: the affinity list in /proc when present
   (what [nproc] reports), else the runtime's recommendation. *)
let nproc () =
  let from_proc () =
    let ic = open_in "/proc/self/status" in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        let rec go () =
          match input_line ic with
          | exception End_of_file -> None
          | l when String.starts_with ~prefix:"Cpus_allowed_list:" l ->
            let v = String.trim (String.sub l 18 (String.length l - 18)) in
            Some
              (List.fold_left
                 (fun acc part ->
                   match String.split_on_char '-' (String.trim part) with
                   | [ a ] when a <> "" -> acc + 1
                   | [ a; b ] -> acc + int_of_string b - int_of_string a + 1
                   | _ -> acc)
                 0 (String.split_on_char ',' v))
          | _ -> go ()
        in
        go ())
  in
  match from_proc () with
  | Some n when n > 0 -> min n (Domain.recommended_domain_count ())
  | _ | (exception _) -> Domain.recommended_domain_count ()

let status_kb ?(pid = "self") field =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        let rec go () =
          match input_line ic with
          | exception End_of_file -> None
          | l when String.starts_with ~prefix:(field ^ ":") l ->
            Scanf.sscanf (String.sub l (String.length field + 1) (String.length l - String.length field - 1))
              " %d" (fun kb -> Some kb)
          | _ -> go ()
        in
        go ())

(* Peak resident set (VmHWM) in MB. *)
let peak_rss_mb ?pid () =
  match status_kb ?pid "VmHWM" with Some kb -> float kb /. 1024. | None -> 0.

(* --- order statistics ----------------------------------------------------- *)

let sorted xs = List.sort compare xs

(* Nearest-rank percentile: the smallest sample with at least p% of the
   samples at or below it. Defined for any non-empty list. *)
let percentile p xs =
  match sorted xs with
  | [] -> nan
  | s ->
    let n = List.length s in
    let rank = int_of_float (Float.ceil (p /. 100. *. float n)) in
    List.nth s (max 0 (min (n - 1) (rank - 1)))

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
    let n = List.length s in
    if n mod 2 = 1 then List.nth s (n / 2)
    else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.

(* The highest of the fixed percentiles (p99, p90, p50) that leaves at
   least ten samples above it: [(p, value)]. *)
let tail xs =
  let n = List.length xs in
  let p = if n >= 1000 then 99. else if n >= 100 then 90. else 50. in
  (p, percentile p xs)

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* --- files ------------------------------------------------------------------ *)

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Sys.remove p

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

(* Write [files] into [dir], overwriting files of the same name: repeated
   set-ups of one run rewrite the same names, which keeps file-system
   metadata churn (and its timing noise) out of [setup_s]. *)
let write_dir dir files =
  mkdir_p dir;
  List.iter (fun (name, text) -> write_file (Filename.concat dir name) text) files

(* --- input generation ------------------------------------------------------- *)

let profile name =
  match List.find_opt (fun p -> p.Netgen.p_name = name) Netgen.profiles with
  | Some p -> p
  | None -> failwith ("unknown Netgen profile " ^ name)

(* One seeded edit of the given kind ([Chaos.semantic_kinds]) on a seeded
   file: files are tried in seeded order until one takes the edit. Returns
   the file's name and new text, or [None] when no file takes it. *)
let seeded_edit ~rng ~kind files =
  let files = Array.of_list files in
  Rng.shuffle rng files;
  Array.to_seq files
  |> Seq.find_map (fun (name, text) ->
         Option.map (fun (text', _) -> (name, text')) (Chaos.semantic_edit ~rng ~kind text))

(* A run's inputs: the generated network in one variant per semantic edit
   kind, variant [i] carrying an edit of kind [i], its file and position
   drawn from [(seed, i)]. Every run holds every kind once, so a run's
   median mixes cheap edits (comments, ACL lines) and expensive ones (BGP
   neighbors, loopbacks, shutdowns) in the same proportion on every seed. *)
let seeded_variants ~seed ~profile:name ~scale =
  let net = (profile name).Netgen.p_make scale in
  List.mapi
    (fun i kind ->
      let rng = Rng.create ((seed * 1009) + i) in
      match seeded_edit ~rng ~kind net.Netgen.n_configs with
      | Some (file, text) ->
        ( { net with
            Netgen.n_configs =
              List.map (fun (n, t) -> if n = file then (n, text) else (n, t)) net.Netgen.n_configs },
          Printf.sprintf "variant %d edit: %s on %s" i kind file )
      | None -> (net, Printf.sprintf "variant %d edit: no file takes %s" i kind))
    Chaos.semantic_kinds

let digest s = Digest.to_hex (Digest.string s)

(* One digest over every variant's configuration text. *)
let inputs_digest nets =
  digest
    (String.concat "\000"
       (List.concat_map
          (fun (net, _) -> List.concat_map (fun (n, t) -> [ n; t ]) net.Netgen.n_configs)
          nets))

(* Reset this process's VmHWM (Linux: "5" to /proc/self/clear_refs), so
   each operation's own peak can be read after it. Best effort. *)
let reset_peak_rss () =
  try
    let oc = open_out "/proc/self/clear_refs" in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc "5")
  with Sys_error _ -> ()

(* A workload's peak RSS is the median over its first [rss_ops]
   operations, not over all of them: memory the engine keeps across
   sessions (BDD nodes are never freed) raises every later operation's
   peak, so a median over a time-bounded run would grow with the number of
   operations a faster program fits in. [None] when the run completed
   fewer. *)
let rss_ops = 4

let early_peak_rss peaks =
  if List.length peaks < rss_ops then None
  else Some (median (List.filteri (fun i _ -> i < rss_ops) peaks))

(* --- the timed loop ----------------------------------------------------------- *)

(* Run [op] until the budget is spent: at least once, and another time only
   while the previous duration still fits in what is left, so a run ends
   near [seconds] instead of overshooting by one whole operation. [between]
   runs untimed before each operation. Returns per-operation durations (s)
   and results in order, and the elapsed time including [between]. *)
let timed_loop ?(between = ignore) cfg op =
  let t_start = Unix.gettimeofday () in
  let rec go i acc =
    between ();
    let r, dt = time (fun () -> op i) in
    let acc = (dt, r) :: acc in
    let elapsed = Unix.gettimeofday () -. t_start in
    let more =
      match cfg.max_ops with
      | Some m -> i + 1 < m
      | None -> elapsed +. dt <= cfg.seconds
    in
    if more then go (i + 1) acc else List.rev acc
  in
  let results = go 0 [] in
  (results, Unix.gettimeofday () -. t_start)

(* Median of [reps] set-ups (one in the self-test), each from a compacted
   heap so garbage left by earlier ones does not slow later ones; returns
   the last set-up's value. *)
let repeated_setup cfg ~reps f =
  let reps = if cfg.tiny then 1 else reps in
  let rec go i times last =
    if i = reps then (Option.get last, median times)
    else begin
      Gc.compact ();
      let v, dt = time f in
      go (i + 1) (dt :: times) (Some v)
    end
  in
  go 0 [] None

(* --- reporting ---------------------------------------------------------------- *)

(* All digits, as measured; a missing measurement (NaN) reads 0. *)
let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let metrics_json ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Span.json_string m.name)
             (json_float m.value) (Span.json_string m.unit))
         ms)
  ^ "}"

let print_metric m = Printf.printf "  %-34s %18.6g %s\n" m.name m.value m.unit
