(* In-memory span recorder for the benchmark's traced run.

   A span wraps one call from the benchmark into a library layer. It records
   its name, layer, parent span, operation id, wall-clock start and end, and
   counters sampled at both boundaries: words allocated ([Gc.quick_stat]),
   major collections, live BDD nodes across managers ([Bdd.global_stats])
   and the cumulative time the runtime spent in GC phases, read from
   [Runtime_events]. Spans stay in memory and are written at exit as Chrome
   trace-event JSON; [layer_table] folds them into per-layer self times.

   Disabled (the default), [with_span] is a direct call: the untimed and the
   timed runs never touch this module's state. *)

type t = {
  id : int;
  parent : int;  (** 0 for a root span *)
  op : int;  (** operation id shared by every span of one operation *)
  name : string;
  layer : string;
  t0 : float;
  mutable t1 : float;
  w0 : float;
  mutable w1 : float;
  maj0 : int;
  mutable maj1 : int;
  gc0 : float;
  mutable gc1 : float;
  bdd0 : int;
  mutable bdd1 : int;
}

let enabled = ref false
let next_id = ref 0
let stack : t list ref = ref []
let closed : t list ref = ref []
let current_op = ref 0

(* --- GC pauses from Runtime_events ------------------------------------- *)

(* GC pause time: the minor collections and major slices each domain's
   ring reports, paired begin-to-end per (ring, phase). Other runtime phases
   (condition waits in the pool, STW bookkeeping) are not pauses of the
   mutator's own doing and are left out. Totals count the main domain's ring
   only: a minor collection stops every domain at once, so summing rings
   would count one pause once per domain. Every interval is kept (runtime
   clock, ns) so the trace file can draw it beside the spans. *)
let gc_mutex = Mutex.create ()
let gc_total_ns = ref 0L
let gc_intervals : (int * int64 * int64) list ref = ref []
let open_phase : (int * Runtime_events.runtime_phase, int64) Hashtbl.t = Hashtbl.create 8
let cursor = ref None
let poller_stop = Atomic.make false
let poller = ref None

(* Offset from the runtime clock (ns) to Unix wall time (s), taken from a
   user event written next to a [Unix.gettimeofday] reading. *)
type Runtime_events.User.tag += Sync
let sync_event = lazy (Runtime_events.User.register "perfbench.sync" Sync Runtime_events.Type.unit)
let sync_wall = ref 0.
let sync_ts = ref None

let pause_phase = function
  | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE -> true
  | _ -> false

let callbacks =
  lazy
    (let begin_ ring ts phase =
       if pause_phase phase then
         Hashtbl.replace open_phase (ring, phase) (Runtime_events.Timestamp.to_int64 ts)
     in
     let end_ ring ts phase =
       match Hashtbl.find_opt open_phase (ring, phase) with
       | Some start ->
         Hashtbl.remove open_phase (ring, phase);
         let ts = Runtime_events.Timestamp.to_int64 ts in
         if ring = 0 then gc_total_ns := Int64.add !gc_total_ns (Int64.sub ts start);
         gc_intervals := (ring, start, ts) :: !gc_intervals
       | None -> () (* not a pause phase, or its begin predates the cursor *)
     in
     Runtime_events.Callbacks.create ~runtime_begin:begin_ ~runtime_end:end_ ()
     |> Runtime_events.Callbacks.add_user_event Runtime_events.Type.unit
          (fun _ ts ev () ->
            match Runtime_events.User.tag ev with
            | Sync -> sync_ts := Some (Runtime_events.Timestamp.to_int64 ts)
            | _ -> ()))

let poll () =
  match !cursor with
  | None -> ()
  | Some c ->
    Mutex.lock gc_mutex;
    (match Runtime_events.read_poll c (Lazy.force callbacks) None with
    | _ -> Mutex.unlock gc_mutex
    | exception e -> Mutex.unlock gc_mutex; raise e)

let gc_seconds () =
  poll ();
  Int64.to_float !gc_total_ns /. 1e9

(* --- counters sampled at span boundaries -------------------------------- *)

let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let major_collections () = (Gc.quick_stat ()).Gc.major_collections
let bdd_nodes () = snd (Bdd.global_stats ())

(* --- lifecycle ----------------------------------------------------------- *)

let start () =
  enabled := true;
  Runtime_events.start ();
  let c = Runtime_events.create_cursor None in
  cursor := Some c;
  sync_wall := Unix.gettimeofday ();
  Runtime_events.User.write (Lazy.force sync_event) ();
  poll ();
  (* drain the rings often enough that a long call cannot overrun them *)
  poller :=
    Some
      (Thread.create
         (fun () ->
           while not (Atomic.get poller_stop) do
             poll ();
             Thread.delay 0.02
           done)
         ())

let stop () =
  if !enabled then begin
    Atomic.set poller_stop true;
    Option.iter Thread.join !poller;
    poller := None;
    poll ();
    enabled := false
  end

let new_op () =
  incr current_op;
  !current_op

let with_span ~layer name f =
  if not !enabled then f ()
  else begin
    incr next_id;
    let parent = match !stack with p :: _ -> p.id | [] -> 0 in
    let gc0 = gc_seconds () in
    let s =
      { id = !next_id; parent; op = !current_op; name; layer;
        w0 = alloc_words (); maj0 = major_collections (); gc0;
        bdd0 = bdd_nodes (); t0 = Unix.gettimeofday (); t1 = 0.; w1 = 0.;
        maj1 = 0; gc1 = 0.; bdd1 = 0 }
    in
    stack := s :: !stack;
    let finish () =
      s.t1 <- Unix.gettimeofday ();
      s.w1 <- alloc_words ();
      s.maj1 <- major_collections ();
      s.gc1 <- gc_seconds ();
      s.bdd1 <- bdd_nodes ();
      stack := List.tl !stack;
      closed := s :: !closed
    in
    Fun.protect ~finally:finish f
  end

let spans () = List.rev !closed
let duration s = s.t1 -. s.t0

(* --- per-layer aggregation ---------------------------------------------- *)

type layer_row = {
  l_layer : string;
  l_calls : int;
  l_self_s : float;  (** duration minus what child spans cover *)
  l_alloc_mw : float;  (** self allocation, millions of words *)
  l_major_gcs : int;
  l_gc_s : float;  (** self time the runtime spent in GC phases *)
  l_bdd_nodes : int;  (** self growth of live BDD nodes *)
}

(* Children of one span run sequentially on the recording thread, so the
   part of a span they cover is the sum of their durations. *)
let layer_table ?(keep = fun (_ : t) -> true) () =
  let all = spans () in
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent s) all;
  let sum f p = List.fold_left (fun acc c -> acc +. f c) 0. (Hashtbl.find_all children p.id) in
  let isum f p = List.fold_left (fun acc c -> acc + f c) 0 (Hashtbl.find_all children p.id) in
  let rows = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if keep s then begin
        let self_s = duration s -. sum duration s in
        let alloc = s.w1 -. s.w0 -. sum (fun c -> c.w1 -. c.w0) s in
        let maj = s.maj1 - s.maj0 - isum (fun c -> c.maj1 - c.maj0) s in
        let gc = s.gc1 -. s.gc0 -. sum (fun c -> c.gc1 -. c.gc0) s in
        let bdd = s.bdd1 - s.bdd0 - isum (fun c -> c.bdd1 - c.bdd0) s in
        let r =
          match Hashtbl.find_opt rows s.layer with
          | Some r -> r
          | None ->
            { l_layer = s.layer; l_calls = 0; l_self_s = 0.; l_alloc_mw = 0.;
              l_major_gcs = 0; l_gc_s = 0.; l_bdd_nodes = 0 }
        in
        Hashtbl.replace rows s.layer
          { r with l_calls = r.l_calls + 1; l_self_s = r.l_self_s +. self_s;
                   l_alloc_mw = r.l_alloc_mw +. (alloc /. 1e6);
                   l_major_gcs = r.l_major_gcs + maj; l_gc_s = r.l_gc_s +. gc;
                   l_bdd_nodes = r.l_bdd_nodes + bdd }
      end)
    all;
  Hashtbl.fold (fun _ r acc -> r :: acc) rows []
  |> List.sort (fun a b -> compare b.l_self_s a.l_self_s)

(* --- Chrome trace-event output ------------------------------------------ *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Complete ("X") events: spans on thread 1, GC phases per ring on threads
   100+ring, all in microseconds from the first span. *)
let write_chrome_trace path =
  let all = spans () in
  let origin = List.fold_left (fun acc s -> Float.min acc s.t0) infinity all in
  let origin = if all = [] then 0. else origin in
  let us t = (t -. origin) *. 1e6 in
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  let first = ref true in
  let emit line =
    if not !first then output_string oc ",\n";
    first := false;
    output_string oc line
  in
  List.iter
    (fun s ->
      emit
        (Printf.sprintf
           "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d,\"alloc_words\":%.0f,\"major_gcs\":%d,\"gc_ms\":%.3f,\"bdd_nodes_delta\":%d}}"
           (json_string s.name) (json_string s.layer) (us s.t0) (duration s *. 1e6)
           s.id s.parent s.op (s.w1 -. s.w0) (s.maj1 - s.maj0)
           ((s.gc1 -. s.gc0) *. 1e3) (s.bdd1 - s.bdd0)))
    all;
  (match !sync_ts with
  | Some ts0 when all <> [] ->
    let wall ns = !sync_wall +. (Int64.to_float (Int64.sub ns ts0) /. 1e9) in
    let t_end = List.fold_left (fun acc s -> Float.max acc s.t1) 0. all in
    List.iter
      (fun (ring, a, b) ->
        let a = wall a and b = wall b in
        if b >= origin && a <= t_end then
          emit
            (Printf.sprintf
               "{\"name\":\"gc\",\"cat\":\"runtime\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f}"
               (100 + ring) (us a) ((b -. a) *. 1e6)))
      (List.rev !gc_intervals)
  | _ -> ());
  emit "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"benchmark calls\"}}";
  output_string oc "\n]}\n";
  close_out oc
