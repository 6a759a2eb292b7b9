(* The store's end-to-end benchmark and its layer ledger.

     ledger.exe --workload kv-mixed --seed 1 --seconds 10 --trace 0 \
       --server-exe PATH [--clk-tck 100] [--corrupt expected|storage]

   One run: launch n=4 store_server processes (five times or more, timing each
   set-up), drive the workload in a closed loop for --seconds over the
   live TCP transport, drain every server (SIGTERM), measure the
   snapshots, relaunch from them, read every key back, and — for
   paper-sessions — run the ack-then-crash probe. Every read is checked
   against the benchmark's model. The last stdout line is one JSON
   object: {"correct", "attempted", "failed", "metrics"}; --trace 0
   reports the end-to-end metrics, --trace 1 the per-layer ones. *)

open Model

let n = Cluster.n
let b = Cluster.b

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  server_exe : string;
  clk_tck : int;
  corrupt : string option;
}

let usage () =
  prerr_endline
    "usage: ledger.exe --workload (kv-mixed|paper-sessions|bulk-coded) --seed N \
     --seconds S --trace (0|1) --server-exe PATH [--clk-tck HZ] [--corrupt expected|storage]";
  exit 2

let parse_args () =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt tbl k with Some v -> v | None -> usage () in
  let num k conv = match conv (get k) with Some v -> v | None -> usage () in
  {
    workload = get "workload";
    seed = num "seed" int_of_string_opt;
    seconds = num "seconds" float_of_string_opt;
    trace = (match get "trace" with "0" -> false | "1" -> true | _ -> usage ());
    server_exe = get "server-exe";
    clk_tck = (match Hashtbl.find_opt tbl "clk-tck" with Some s -> (match int_of_string_opt s with Some v -> v | None -> usage ()) | None -> 100);
    corrupt = (match Hashtbl.find_opt tbl "corrupt" with None -> None | Some ("expected" | "storage" as c) -> Some c | Some _ -> usage ());
  }

let now = Unix.gettimeofday
let started = now ()

(* Progress on stderr, stamped with seconds since start. *)
let log fmt = Printf.ksprintf (fun s -> Printf.eprintf "[%6.2f] %s\n%!" (now () -. started) s) fmt

(* ---- result accounting ---- *)

type result = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable metrics : (string * float * string) list;  (** name, value, unit *)
}

let res = { attempted = 0; failed = 0; errors = []; metrics = [] }
let err fmt = Printf.ksprintf (fun s -> res.errors <- s :: res.errors) fmt
let metric name unit v = res.metrics <- (name, v, unit) :: res.metrics

(* A metric that is not a finite number is a failed check, printed as
   null: 0 would read as the best value a lower-is-better metric has. *)
let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print_result () =
  List.iter (fun (name, v, _) -> if not (Float.is_finite v) then err "metric %s is %g" name v) res.metrics;
  let correct = res.errors = [] in
  List.iter (fun e -> Printf.eprintf "check failed: %s\n" e) (List.rev res.errors);
  let metrics =
    List.rev_map
      (fun (name, v, unit) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
      res.metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    (max 1 res.attempted) res.failed (String.concat ", " metrics)

(* ---- the run ---- *)

let pct samples p = Samples.pct (Samples.sorted samples) p
let sum_int ws f = List.fold_left (fun acc w -> acc + f w) 0 ws
let div a b = if b = 0.0 then 0.0 else a /. b
let fdiv a b = div (float_of_int a) (float_of_int b)

(* Move the workers' failed checks into the result. *)
let absorb_errors ws =
  List.iter
    (fun (w : Drive.worker) ->
      res.errors <- w.errors @ res.errors;
      w.errors <- [])
    ws

(* ... and, after a measured phase, their op counts too. *)
let absorb ws =
  List.iter
    (fun (w : Drive.worker) ->
      res.attempted <- res.attempted + w.ops;
      res.failed <- res.failed + w.failed)
    ws;
  absorb_errors ws

(* Launch, preload and warm up (one round per worker). *)
let setup args spec ~dir ~metrics =
  let t0 = now () in
  let cluster =
    Cluster.create ~exe:args.server_exe ~dir ~shards:spec.Drive.shards ~clients:(Drive.clients spec) ~metrics
  in
  Cluster.launch cluster;
  let workers =
    List.init spec.workers (fun wid -> Drive.make_worker spec ~seed:args.seed ~prefix:"" ~keys:spec.keys ~wid)
  in
  Drive.on_thread cluster workers (fun ws ->
      List.iter
        (fun w ->
          ignore (Drive.connect w);
          Drive.preload w)
        ws;
      Drive.round ws);
  (cluster, workers, now () -. t0)

let cpu_ticks cluster =
  match (Cluster.cpu_ticks (Unix.getpid ()), Cluster.cpu_ticks_all cluster) with
  | Some a, Some b -> Some (a + b)
  | _ ->
    err "a server's /proc/<pid>/stat could not be read: it is gone";
    None

(* The graceful-restart check: relaunch every server from its drained
   snapshot and time until the check session's first read returns —
   [restarts] times, SIGKILLing the relaunched servers in between (they
   save nothing that soon), returning the median — then read every key
   back and compare it with the model (values regenerated from
   (seed, key, version)). *)
let restart_check cluster workers ~restarts =
  let check (w : Drive.worker) uid =
    let u = Option.get (Store.Uid.of_string uid) in
    match Store.Router.read w.router ~uid:u with
    | Ok got -> (
      match Model.regenerate w.model ~uid with
      | Some expected when not (Model.read_matches ~expected ~got) ->
        err "after restart %s differs from the model" uid
      | _ -> ())
    | Error e -> err "after restart %s: %s" uid (Store.Client.error_to_string e)
  in
  let relaunch () =
    let t0 = now () in
    Cluster.launch cluster;
    List.iter Drive.renew workers;
    match workers with
    | (w : Drive.worker) :: _ -> (
      match Model.keys w.model with
      | uid :: _ ->
        Drive.on_workers cluster [ w ] (fun w -> check w uid);
        now () -. t0
      | [] ->
        err "model is empty";
        nan)
    | [] -> nan
  in
  let times =
    List.init restarts (fun i ->
        let dt = relaunch () in
        if i < restarts - 1 then Cluster.kill cluster;
        dt)
  in
  (* no disconnect: a server restored from a drained snapshot is still
     draining and denies the context store *)
  Drive.on_workers cluster workers (fun w -> List.iter (check w) (Model.keys w.model));
  Model.median times

(* Ack-then-crash, on a cluster of its own: launch n fresh servers,
   write [count] fresh keys and wait for their acks, SIGKILL every
   server, restart them from whatever they persisted, read each key
   back. Each read that does not return the acknowledged value is a
   failed op. A server's first periodic snapshot comes one full
   --snapshot-period (10 s) after its launch; the probe ends its writes
   well inside that window (checked), so the outcome does not depend on
   timing. (The drained cluster cannot host the probe: a server
   restored from a drained snapshot stays draining and denies writes.) *)
let probe args spec ~root ~count =
  let cluster =
    Cluster.create ~exe:args.server_exe ~dir:(Filename.concat root "probe") ~shards:spec.Drive.shards
      ~clients:(Drive.clients spec) ~metrics:false
  in
  let since = now () in
  Cluster.launch cluster;
  let w = Drive.make_worker spec ~seed:args.seed ~prefix:"probe" ~keys:count ~wid:0 in
  let uids = List.init count (fun key -> Drive.uid_of w key) in
  let wrote = ref 0 in
  Drive.on_workers cluster [ w ] (fun w ->
      List.iter
        (fun uid ->
          let us = Store.Uid.to_string uid in
          let size = w.spec.size 0 in
          let version, v = Model.next_value w.model ~uid:us ~size in
          res.attempted <- res.attempted + 1;
          (* a session per key (never disconnected, so the servers store
             no context): a CC write carries its session's context, and
             one long session would make the probe quadratic *)
          Drive.renew w;
          match Store.Router.write w.router ~uid v with
          | Ok () ->
            incr wrote;
            Model.commit w.model ~uid:us ~version ~size v
          | Error e ->
            res.failed <- res.failed + 1;
            err "probe write %s failed: %s" us (Store.Client.error_to_string e))
        uids);
  if now () -. since > 8.0 then
    err "probe writes ended %.1f s after launch; a periodic snapshot may have run" (now () -. since);
  Cluster.kill cluster;
  Cluster.launch cluster;
  (* the reader checks what survived; it does not wait for stragglers *)
  Drive.renew w ~tweak:(fun c -> { c with Store.Client.read_retries = 0 });
  let lost = ref 0 in
  Drive.on_workers cluster [ w ] (fun w ->
      List.iter
        (fun uid ->
          let us = Store.Uid.to_string uid in
          res.attempted <- res.attempted + 1;
          match Store.Router.read w.router ~uid with
          | Ok got -> (
            match Model.expected w.model ~uid:us with
            | Some expected when Model.read_matches ~expected ~got -> ()
            | _ -> err "probe read %s returned a value nobody wrote" us)
          | Error _ ->
            incr lost;
            res.failed <- res.failed + 1)
        uids);
  Cluster.kill cluster;
  log "probe: %d acknowledged writes, %d lost after SIGKILL + restart" !wrote !lost

(* Set-ups per run: at least [min_setups], then more until [setup_span]
   seconds have gone by (at most [max_setups]), so that the median of a
   cheap set-up covers more than one second of a shared host. *)
let min_setups = 5
let max_setups = 25
let setup_span = 4.0

(* The measured phase's end-to-end figures. *)
type phase = {
  wall : float;
  ops : int;
  reads : Samples.t list;
  raws : Samples.t list;
  writes : Samples.t list;
  sessions : Samples.t list;
  bytes : int;
  cpu_s : float;
  rss_kib : float;
}

(* The machine's steal time (/proc/stat), in clock ticks: time its
   virtual CPUs were ready to run but the host ran something else.
   Logged, not reported: it tells a slow run on a shared host from a
   slow program. *)
let steal_ticks () =
  match Cluster.read_file "/proc/stat" with
  | Some s -> (
    match String.split_on_char ' ' (List.hd (String.split_on_char '\n' s)) |> List.filter (( <> ) "") with
    | "cpu" :: fields when List.length fields > 7 -> Option.value ~default:0 (int_of_string_opt (List.nth fields 7))
    | _ -> 0)
  | None -> 0

let measure args cluster workers ~rounds =
  log "measure %d rounds per worker" rounds;
  List.iter Drive.reset_measurements workers;
  let m0 = Store.Metrics.read () and c0 = cpu_ticks cluster in
  let rss = Cluster.sample_rss cluster in
  let st0 = steal_ticks () in
  let t0, wall = Drive.timed_phase cluster workers ~rounds in
  let c1 = cpu_ticks cluster and m1 = Store.Metrics.read () in
  log "timed phase: %.2f s, %.0f%% of one CPU stolen by the host" wall
    (100.0 *. float_of_int (steal_ticks () - st0) /. float_of_int args.clk_tck /. wall);
  List.iter (fun e -> err "%s during the timed phase" e) (Cluster.exited cluster);
  let rss = rss () in
  if List.exists (fun (_, kib) -> kib = None) rss then
    err "a server's /proc/<pid>/status had no VmRSS during the timed phase: it is gone";
  (* server memory as the phase ends: the median over its second half,
     since one sample lands anywhere in a garbage-collection cycle *)
  let rss_kib =
    Model.median
      (List.filter_map
         (fun (t, kib) ->
           match kib with
           | Some kib when t >= t0 +. (wall /. 2.0) -> Some (float_of_int kib)
           | _ -> None)
         rss)
  in
  let get f = List.map f workers in
  {
    wall;
    ops = sum_int workers (fun w -> w.Drive.ops);
    reads = get (fun w -> w.Drive.read_lat);
    raws = get (fun w -> w.Drive.raw_lat);
    writes = get (fun w -> w.Drive.write_lat);
    sessions = get (fun w -> w.Drive.session_lat);
    bytes = m1.Store.Metrics.bytes - m0.Store.Metrics.bytes;
    cpu_s =
      (match (c0, c1) with
      | Some c0, Some c1 -> float_of_int (c1 - c0) /. float_of_int args.clk_tck
      | _ -> nan);
    rss_kib;
  }

let live_bytes workers = sum_int workers (fun w -> Model.live_bytes w.Drive.model)

(* Drain, measure the snapshots, check their size against the
   replication bound. Returns (snapshot bytes, live bytes). *)
let drain_and_measure args spec cluster workers =
  log "drain";
  List.iter (fun e -> err "drain: %s" e) (Cluster.drain cluster);
  (* Logged, not failed: store_server's periodic snapshot thread and its
     drain save the same file unsynchronised, so now and then a drained
     server leaves an empty snapshot (see the README's Checks). *)
  List.iter
    (fun f -> log "warning: the drain left an empty or no snapshot at %s" f)
    (Cluster.missing_snapshots cluster);
  let stored = Cluster.snapshot_bytes cluster in
  let stored = if args.corrupt = Some "storage" then int_of_float (float_of_int (live_bytes workers) *. spec.Drive.min_storage_ratio) - 1 else stored in
  let live = live_bytes workers in
  if not (Model.storage_ok ~stored ~live ~min_ratio:spec.Drive.min_storage_ratio) then
    err "snapshots hold %d bytes for %d live bytes, below the %.1fx a drained cluster must keep" stored live
      spec.Drive.min_storage_ratio;
  (stored, live)

(* The checks and the probe every run ends with. Returns restart_s. *)
let finish args spec cluster workers ~root ~rounds ~restarts =
  if args.corrupt = Some "expected" then
    (match workers with w :: _ -> Model.corrupt w.Drive.model | [] -> ());
  log "restart check";
  let restart_s = restart_check cluster workers ~restarts in
  Cluster.kill cluster;
  log "restart check done (first read after %.3f s)" restart_s;
  if spec.Drive.probe then probe args spec ~root ~count:rounds;
  restart_s

let untraced args spec cluster workers ~root ~setup_s =
  let p = measure args cluster workers ~rounds:(Drive.rounds_for spec ~seconds:args.seconds) in
  absorb workers;
  let rounds = sum_int workers (fun w -> w.Drive.rounds) in
  let stored, live = drain_and_measure args spec cluster workers in
  ignore (finish args spec cluster workers ~root ~rounds ~restarts:1);
  absorb_errors workers;
  let us s = s *. 1e6 in
  metric "setup_s" "s" setup_s;
  metric "read_p50_us" "us" (us (pct p.reads 50.0));
  metric "write_p50_us" "us" (us (pct p.writes 50.0));
  metric "session_p50_us" "us" (us (pct p.sessions 50.0));
  metric "wire_bytes_per_op" "B" (fdiv p.bytes p.ops);
  metric "stored_bytes_per_live_byte" "B/B" (fdiv stored live);
  metric "cpu_us_per_op" "us" (us (div p.cpu_s (float_of_int p.ops)))

(* ---- the traced run: per-layer metrics ---- *)

let scrape_delta s0 s1 ?having name =
  Cluster.sum_metric s1 ?having name -. Cluster.sum_metric s0 ?having name

(* Mean µs of one span phase across all servers over the interval. *)
let phase_mean_us s0 s1 ~op ~phase =
  let having = [ Printf.sprintf "op=\"%s\"" op; Printf.sprintf "phase=\"%s\"" phase ] in
  let name = "securestore_phase_duration_seconds" in
  1e6 *. div (scrape_delta s0 s1 ~having (name ^ "_sum")) (scrape_delta s0 s1 ~having (name ^ "_count"))

let traced args spec cluster workers ~root =
  let us s = s *. 1e6 in
  let w0 = List.hd workers in
  (* Pool.call_many probe: one Meta_query to the n replicas of shard 0,
     completing at b+1 replies, the size of a read round. *)
  let shard = if spec.Drive.shards = 0 then None else Some 0 in
  let dests = List.init n (fun r -> (r, ("127.0.0.1", cluster.Cluster.ports.(r)))) in
  let payload =
    Store.Payload.encode_envelope
      { Store.Payload.token = None; epoch = 0; request = Store.Payload.Meta_query { uid = Drive.uid_of w0 0 } }
  in
  let quorum = b + 1 in
  let rtt () =
    let t0 = now () in
    ignore (Tcpnet.Pool.call_many (Tcpnet.Pool.shared ()) ~timeout:2.0 ?shard ~quorum dests payload);
    now () -. t0
  in
  let idle = Samples.create () in
  for _ = 1 to 200 do Samples.add idle (rtt ()) done;
  let rounds = ref 0 in
  let take_rounds () = rounds := !rounds + sum_int workers (fun w -> w.Drive.rounds) in
  (* U: untraced; every count is taken here *)
  Store.Metrics.reset_gauges ();
  List.iter (fun (w : Drive.worker) -> w.count_rpcs <- true) workers;
  let s0 = Cluster.scrape cluster and m0 = Store.Metrics.read () in
  let rounds_u = Drive.rounds_for spec ~seconds:(args.seconds /. 2.0) in
  let pu = measure args cluster workers ~rounds:rounds_u in
  let m1 = Store.Metrics.read () and s1 = Cluster.scrape cluster in
  let d = Store.Metrics.diff m1 m0 in
  let wsum f = sum_int workers f in
  let reads = wsum (fun w -> w.reads) and writes = wsum (fun w -> w.writes) in
  let flushes = wsum (fun w -> w.flushes) and useful = wsum (fun w -> w.useful_flushes) in
  let read_rounds = wsum (fun w -> w.read_rounds) and client_reads = wsum (fun w -> w.client_reads) in
  let read_rpcs = wsum (fun w -> w.read_rpcs) and write_rpcs = wsum (fun w -> w.write_rpcs) in
  let connects = List.map (fun w -> w.Drive.connect_lat) workers in
  let disconnects = List.map (fun w -> w.Drive.disconnect_lat) workers in
  let connect_us = us (pct connects 50.0) and disconnect_us = us (pct disconnects 50.0) in
  let live_read = pct (pu.reads @ pu.raws) 50.0 and live_write = pct pu.writes 50.0 in
  take_rounds ();
  absorb workers;
  List.iter (fun (w : Drive.worker) -> w.count_rpcs <- false) workers;
  (* T: the cost of the program's span phases on the client side. The
     servers run with --metrics-port, so their spans are on throughout;
     only this process's are toggled. Short untraced and traced segments
     alternate (U T, T U, U T, ...) and the median of the five paired
     differences in whole-segment ops/s is reported, so drift over the
     run falls on both sides instead of on one. *)
  let segment traced =
    Obs.Span.set_enabled traced;
    let p = measure args cluster workers ~rounds:(max 1 (rounds_u / 10)) in
    Obs.Span.set_enabled false;
    take_rounds ();
    absorb workers;
    div (float_of_int p.ops) p.wall
  in
  let trace_overheads =
    List.init 5 (fun i ->
        let u, t =
          if i land 1 = 0 then
            let u = segment false in
            (u, segment true)
          else
            let t = segment true in
            (segment false, t)
        in
        100.0 *. div (u -. t) u)
  in
  log "trace overhead per pair: %s" (String.concat " " (List.map (Printf.sprintf "%.1f%%") trace_overheads));
  (* L: the same load with a quorum-RTT probe after every tenth op of
     each session *)
  let loaded = List.map (fun (w : Drive.worker) -> (w, Samples.create ())) workers in
  List.iter
    (fun ((w : Drive.worker), s) -> w.after_op <- (fun i -> if i mod 10 = 0 then Samples.add s (rtt ())))
    loaded;
  ignore (measure args cluster workers ~rounds:(Drive.rounds_for spec ~seconds:2.0));
  List.iter (fun ((w : Drive.worker), _) -> w.after_op <- ignore) loaded;
  let loaded = List.map snd loaded in
  take_rounds ();
  absorb workers;
  let m2 = Store.Metrics.read () in
  let ctx =
    match Store.Router.sessions w0.router with
    | (_, c) :: _ -> Store.Client.context c
    | [] -> Store.Context.empty
  in
  (* a recorded segment on fresh groups, judged by the consistency oracle *)
  let rec_workers =
    List.init spec.workers (fun wid ->
        Drive.make_worker spec ~seed:args.seed ~prefix:"rec" ~keys:spec.rec_keys ~wid)
  in
  let history = Check.History.create () in
  Check.History.recording history (fun () ->
      Drive.on_thread cluster rec_workers (fun ws ->
          List.iter
            (fun w ->
              ignore (Drive.connect w);
              Drive.preload w)
            ws;
          Drive.round ws;
          List.iter (fun w -> ignore (Drive.disconnect w)) ws));
  rounds := !rounds + sum_int rec_workers (fun w -> w.Drive.rounds);
  absorb rec_workers;
  let violations = Check.Oracle.check (Check.History.events history) in
  List.iteri
    (fun i v -> if i < 3 then err "oracle: %s" (Check.Oracle.violation_to_string v))
    violations;
  log "oracle: %d events, %d violations" (Check.History.length history) (List.length violations);
  let total_writes =
    sum_int (workers @ rec_workers) (fun w ->
        List.fold_left
          (fun acc uid -> acc + (Hashtbl.find w.Drive.model.entries uid).version)
          0 (Model.keys w.Drive.model))
  in
  (* drain; the snapshots feed the persist layer *)
  let stored, _ = drain_and_measure args spec cluster workers in
  let uids =
    List.concat_map
      (fun w -> List.map (fun u -> Option.get (Store.Uid.of_string u)) (Model.keys w.Drive.model))
      workers
  in
  let ps =
    Layers.persist spec ~files:(Cluster.snapshot_files cluster) ~uids ~scratch:(Filename.concat root "persist.tmp")
  in
  let restart_s = finish args spec cluster workers ~root ~rounds:!rounds ~restarts:5 in
  absorb_errors workers;
  (* single-layer probes *)
  let p = { Layers.spec; seed = args.seed; ctx } in
  let sign_us, verify_us, mac_us, ctx_us, signed = Layers.signing p in
  let sample =
    match spec.signing with
    | Store.Client.Mac_fast -> (
      match
        Store.Signing.mac_write (Drive.keyring spec) ~writer:signed.writer ~uid:signed.uid ~stamp:signed.stamp
          ?frags:signed.frags ~servers:(Store.Router.shard_servers ~n 0) signed.value
      with
      | Some w -> w
      | None -> signed)
    | _ -> signed
  in
  let env_bytes, enc_us, dec_us = Layers.wire sample in
  let enc_ms, dec_ms, dig_ms = Layers.dispersal ~seed:args.seed in
  let replay_ops = match spec.name with "kv-mixed" -> 1000 | "paper-sessions" -> 200 | _ -> 40 in
  let proto_read, proto_write, proto_errors = Layers.protocol_only spec ~seed:args.seed ~ops:replay_ops in
  List.iter (fun e -> err "protocol-only replay: %s" e) proto_errors;
  let opsu = float_of_int pu.ops in
  let per_op v = div (float_of_int v) opsu in
  let loaded_rtt = pct loaded 50.0 in
  let server_sum name = scrape_delta s0 s1 name in
  (* whole-op figures too sensitive to a shared machine to bound *)
  metric "ops_per_s" "1/s" (div opsu pu.wall);
  metric "read_p90_us" "us" (us (pct pu.reads 90.0));
  metric "write_p90_us" "us" (us (pct pu.writes 90.0));
  metric "read_after_write_p50_us" "us" (us (pct pu.raws 50.0));
  metric "server_rss_mib" "MiB" (pu.rss_kib /. 1024.0);
  metric "restart_s" "s" restart_s;
  (* client *)
  metric "client.msgs_per_op" "count/op" (per_op d.messages);
  metric "client.rpcs_per_op" "count/op" (per_op d.rpcs);
  metric "client.read_rounds_per_read" "count/op" (fdiv read_rounds client_reads);
  metric "client.retries_per_op" "count/op" (per_op d.retries);
  metric "client.expansions_per_op" "count/op" (per_op d.escalations);
  metric "client.flushes_per_read" "count/op" (fdiv flushes reads);
  metric "client.useful_flush_ratio" "ratio" (fdiv useful flushes);
  metric "client.connect_p50_us" "us" connect_us;
  metric "client.disconnect_p50_us" "us" disconnect_us;
  (* signing *)
  metric "signing.signs_per_op" "count/op" (per_op d.signs);
  metric "signing.macs_per_op" "count/op" (per_op d.macs);
  metric "signing.verifies_per_op" "count/op" (per_op d.verifies);
  metric "signing.rsa_verifies_per_op" "count/op" (per_op (Store.Metrics.rsa_verifies d));
  metric "signing.sigcache_hit_ratio" "ratio" (fdiv d.sigcache_hits (d.sigcache_hits + d.sigcache_misses));
  metric "signing.sign_write_us" "us" sign_us;
  metric "signing.verify_write_us" "us" verify_us;
  metric "signing.mac_write_us" "us" mac_us;
  metric "signing.sign_context_us" "us" ctx_us;
  (* wire *)
  metric "wire.envelope_bytes" "B" (float_of_int env_bytes);
  metric "wire.encode_us" "us" enc_us;
  metric "wire.decode_us" "us" dec_us;
  (* dispersal *)
  metric "dispersal.encode_ms_per_mib" "ms/MiB" enc_ms;
  metric "dispersal.decode_ms_per_mib" "ms/MiB" dec_ms;
  metric "dispersal.digest_ms_per_mib" "ms/MiB" dig_ms;
  metric "dispersal.frag_rounds_per_op" "count/op"
    (div (server_sum "securestore_frag_puts_total" +. server_sum "securestore_frag_gets_total") opsu);
  (* pool *)
  metric "pool.quorum_rtt_idle_p50_us" "us" (us (pct [ idle ] 50.0));
  metric "pool.quorum_rtt_loaded_p50_us" "us" (us loaded_rtt);
  metric "pool.connects" "count" (float_of_int (m2.tcp_connects - m0.tcp_connects));
  metric "pool.reconnects" "count" (float_of_int (m2.tcp_reconnects - m0.tcp_reconnects));
  metric "pool.inflight_peak" "count" (float_of_int (Store.Metrics.inflight_high_water ()));
  (* server *)
  metric "server.protocol_read_us" "us" (us proto_read);
  metric "server.protocol_write_us" "us" (us proto_write);
  metric "server.decode_us" "us" (phase_mean_us s0 s1 ~op:"server_request" ~phase:"decode");
  metric "server.verify_us" "us" (phase_mean_us s0 s1 ~op:"server_request" ~phase:"verify");
  metric "server.apply_us" "us" (phase_mean_us s0 s1 ~op:"server_request" ~phase:"apply");
  metric "server.items" "count" (float_of_int ps.items);
  metric "server.held_writes" "count" (float_of_int ps.held);
  (* server_host *)
  metric "server_host.hosting_read_us" "us" (us (live_read -. proto_read));
  metric "server_host.hosting_write_us" "us" (us (live_write -. proto_write));
  metric "server_host.request_mean_us" "us"
    (1e6
    *. div (server_sum "securestore_shard_request_duration_seconds_sum")
         (server_sum "securestore_shard_request_duration_seconds_count"));
  (* gossip *)
  let gossip_rounds = scrape_delta s0 s1 ~having:[ "op=\"gossip_round\""; "phase=\"total\"" ] "securestore_phase_duration_seconds_count" in
  metric "gossip.bytes_per_write" "B" (div (server_sum "securestore_bytes_total") (float_of_int writes));
  metric "gossip.rounds_per_s" "1/s" (div gossip_rounds pu.wall);
  metric "gossip.round_mean_us" "us" (phase_mean_us s0 s1 ~op:"gossip_round" ~phase:"total");
  (* persist *)
  metric "persist.snapshot_bytes_per_item" "B" (fdiv stored ps.items);
  metric "persist.audit_entries_per_write" "count" (fdiv ps.audit total_writes);
  metric "persist.load_ms" "ms" ps.load_ms;
  metric "persist.save_ms" "ms" ps.save_ms;
  (* ledger: protocol-only time plus one loaded quorum RTT per rpc *)
  metric "ledger.read_accounted_share" "ratio"
    (div (proto_read +. (fdiv read_rpcs reads *. loaded_rtt)) live_read);
  metric "ledger.write_accounted_share" "ratio"
    (div (proto_write +. (fdiv write_rpcs writes *. loaded_rtt)) live_write);
  metric "ledger.trace_overhead_pct" "%" (Model.median trace_overheads)

(* A fixed CPU task, timed and logged (not reported): tells a slow run
   on a shared machine from a slow program. *)
let log_host_speed label =
  let block = String.make 65536 'x' in
  let t0 = now () in
  for _ = 1 to 100 do
    ignore (Sys.opaque_identity (Crypto.Sha256.digest block))
  done;
  log "host check (%s): 6.4 MB of SHA-256 in %.1f ms" label ((now () -. t0) *. 1e3)

let run args spec =
  log_host_speed "start";
  Fun.protect ~finally:(fun () -> log_host_speed "end") @@ fun () ->
  if not (Model.self_test ()) then err "the checks' self-test did not fail on corrupted inputs";
  let base = ".perfbench_runs" in
  (try Unix.mkdir base 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let root = Filename.concat base (Printf.sprintf "run-%d" (Unix.getpid ())) in
  Unix.mkdir root 0o755;
  let cleanup () =
    Cluster.kill_everything ();
    Cluster.rm_rf root;
    try Unix.rmdir base with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  (* set-up, several times; the last cluster is the measured one *)
  let t0 = now () in
  let rec setups i times =
    let c, ws, dt = setup args spec ~dir:(Filename.concat root (Printf.sprintf "c%d" i)) ~metrics:args.trace in
    List.iter
      (fun (w : Drive.worker) -> if w.failed > 0 then err "%d ops failed during set-up" w.failed)
      ws;
    absorb_errors ws;
    log "set-up %d: %.3f s" i dt;
    let times = dt :: times and count = i + 1 in
    if count >= min_setups && (count >= max_setups || now () -. t0 >= setup_span) then (c, ws, times)
    else begin
      Cluster.kill c;
      setups count times
    end
  in
  let cluster, workers, times = setups 0 [] in
  let setup_s = Model.median times in
  if args.trace then traced args spec cluster workers ~root
  else untraced args spec cluster workers ~root ~setup_s

(* Process hygiene, checked at exit: no child process and no listener
   on any port this run reserved may outlive it. *)
let hygiene () =
  Cluster.kill_everything ();
  (match Cluster.children () with
  | [] -> ()
  | pids -> err "child processes left behind: %s" (String.concat "," (List.map string_of_int pids)));
  match Cluster.listening !Cluster.reserved_ports with
  | [] -> ()
  | ports -> err "listeners left behind on ports %s" (String.concat "," (List.map string_of_int ports))

let () =
  let args = parse_args () in
  let spec =
    match List.find_opt (fun s -> s.Drive.name = args.workload) Drive.all with
    | Some s -> s
    | None -> usage ()
  in
  if not (Sys.file_exists args.server_exe) then begin
    Printf.eprintf "no store_server at %s\n" args.server_exe;
    exit 2
  end;
  at_exit Cluster.kill_everything;
  let stop _ = exit 3 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  (try run args spec with e -> err "run aborted: %s" (Printexc.to_string e));
  hygiene ();
  print_result ()
