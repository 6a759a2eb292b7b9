(* The three workloads and the client sessions that drive them.

   A worker is one client session: one Store.Router (one client
   identity) owning one group, reconnecting every [round_ops] ops. The
   workers of a run take turns on one client thread, one op at a time
   (closed loop). Each group has a single writer — its worker — so the
   worker's own model knows every value a read must return. *)

open Model

type op = { key : int; write : bool }

type spec = {
  name : string;
  shards : int;  (** 0 = unsharded servers *)
  workers : int;
      (** client sessions, each on a group of its own; all of them take
          turns op by op on one client thread *)
  keys : int;  (** per group *)
  rec_keys : int;  (** per group in the oracle-recorded segment *)
  size : int -> int;  (** value bytes of key i *)
  write_ratio : float;
  round_ops : int;  (** ops between reconnects *)
  nominal_rate : float;
      (** ops/s of the whole workload on the reference machine: sizes the
          fixed amount of work a run of --seconds does *)
  picker : keys:int -> write_ratio:float -> Random.State.t -> unit -> int * bool;
      (** the next op's key and whether it writes *)
  session_repeats : int;
      (** session boundaries (disconnect + connect) measured back to back
          at every reconnect *)
  signing : Store.Client.signing_mode;
  consistency : Store.Client.consistency;
  timeout : float;
  min_storage_ratio : float;  (** n for replicated values, n/k for coded ones *)
  probe : bool;  (** ack-then-crash probe after the restart check *)
}

let uniform01 st = Float.min (Random.State.float st 1.0) (1.0 -. epsilon_float)

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let coin st write_ratio = Random.State.float st 1.0 < write_ratio

(* Zipfian ranks (YCSB sampler) mapped through a seeded permutation, so
   which keys are hot changes with the seed. *)
let zipf_picker ~keys ~write_ratio st =
  let z = Workload.Openloop.zipf ~keys ~theta:0.99 in
  let perm = Array.init keys Fun.id in
  shuffle st perm;
  fun () ->
    let key = perm.(Workload.Openloop.draw z ~u:(uniform01 st)) in
    (key, coin st write_ratio)

let uniform_picker ~keys ~write_ratio st () =
  let key = Random.State.int st keys in
  (key, coin st write_ratio)

(* Bulk keys alternate 256 KiB (even) and 1 MiB (odd). Ops are dealt
   from shuffled decks that hold, per 1 MiB key, three writes and three
   reads and, per 256 KiB key, one of each: three quarters of ops move
   1 MiB, so medians and p90s sit inside the 1 MiB mode instead of on
   the gap between the two sizes, and every deck moves exactly the same
   bytes in each direction. *)
let deck_picker ~keys ~write_ratio:_ st =
  let deck =
    Array.of_list
      (List.concat_map
         (fun k ->
           let copies = if k land 1 = 1 then 3 else 1 in
           List.init copies (fun _ -> (k, true)) @ List.init copies (fun _ -> (k, false)))
         (List.init keys Fun.id))
  in
  let pos = ref (Array.length deck) in
  fun () ->
    if !pos >= Array.length deck then begin
      shuffle st deck;
      pos := 0
    end;
    let op = deck.(!pos) in
    incr pos;
    op

let kv_mixed =
  {
    name = "kv-mixed"; shards = 2; workers = 2; keys = 1000; rec_keys = 64;
    size = (fun _ -> 512); write_ratio = 0.5; round_ops = 200; nominal_rate = 1000.0; picker = zipf_picker; session_repeats = 1;
    signing = Store.Client.Mac_fast; consistency = Store.Client.MRC; timeout = 2.0;
    min_storage_ratio = float_of_int Cluster.n; probe = false;
  }

let paper_sessions =
  {
    name = "paper-sessions"; shards = 0; workers = 1; keys = 64; rec_keys = 64;
    size = (fun _ -> 1024); write_ratio = 0.3; round_ops = 20; nominal_rate = 800.0; picker = uniform_picker; session_repeats = 1;
    signing = Store.Client.Per_write_sig; consistency = Store.Client.CC; timeout = 2.0;
    min_storage_ratio = float_of_int Cluster.n; probe = true;
  }

let bulk_coded =
  {
    name = "bulk-coded"; shards = 0; workers = 1; keys = 24; rec_keys = 6;
    size = (fun i -> if i land 1 = 0 then 256 * 1024 else 1024 * 1024); write_ratio = 0.5;
    round_ops = 20; nominal_rate = 8.0; picker = deck_picker;
    (* about six rounds a run: eight boundaries at each give the session
       median enough samples *)
    session_repeats = 8; signing = Store.Client.Per_write_sig;
    consistency = Store.Client.MRC; timeout = 10.0;
    (* k = b+1 of n: every server keeps a 1/k-size fragment *)
    min_storage_ratio = float_of_int Cluster.n /. float_of_int (Cluster.b + 1); probe = false;
  }

let all = [ kv_mixed; paper_sessions; bulk_coded ]

let config spec shard =
  let shard = if spec.shards = 0 then 0 else shard in
  {
    (Store.Client.default_config ~n:Cluster.n ~b:Cluster.b) with
    Store.Client.servers = Store.Router.shard_servers ~n:Cluster.n shard;
    signing = spec.signing;
    consistency = spec.consistency;
    timeout = spec.timeout;
  }

let client_name w = Printf.sprintf "bench%d" w
let clients spec = List.init spec.workers client_name

let table spec = Store.Shardmap.make ~seed:"perfbench" ~shards:(max 1 spec.shards) ()

(* Held Mac_fast writes that make the client escalate: the client's
   default, which the workloads keep. *)
let escalate_every spec =
  match spec.signing with
  | Store.Client.Mac_fast -> max 1 (config spec 0).Store.Client.escalate_every
  | _ -> 0

(* The group of [worker], owned by shard [worker mod shards], so the
   workers of a sharded workload spread over the shards. *)
let group spec ~prefix ~worker =
  let table = table spec in
  let want = worker mod max 1 spec.shards in
  let rec find i =
    let g = Printf.sprintf "%s%d-%d" prefix worker i in
    if Store.Shardmap.shard_of_group table g = want then g else find (i + 1)
  in
  find 0

let item k = Printf.sprintf "k%d" k

(* ---- workers ---- *)

type worker = {
  spec : spec;
  wid : int;
  uid : string;
  group : string;
  keys : int;
  model : Model.t;
  next : unit -> op;
  mutable router : Store.Router.t;
  mutable prev_write : bool;  (** was the session's previous op a write? *)
  mutable held : int list;  (** keys of Mac_fast writes not yet escalated *)
  (* latency samples, seconds *)
  read_lat : Samples.t;  (** reads after a read (or a connect) *)
  raw_lat : Samples.t;  (** reads directly after a write *)
  write_lat : Samples.t;
  session_lat : Samples.t;  (** disconnect + next connect *)
  connect_lat : Samples.t;
  disconnect_lat : Samples.t;
  (* counters *)
  mutable ops : int;
  mutable reads : int;
  mutable writes : int;
  mutable failed : int;
  mutable rounds : int;
  mutable flushes : int;
  mutable useful_flushes : int;
  mutable read_rounds : int;  (** Client.stats read_rounds of finished sessions *)
  mutable client_reads : int;
  mutable read_rpcs : int;
  mutable write_rpcs : int;
  mutable count_rpcs : bool;
  mutable after_op : int -> unit;  (** called with the op's index in its round *)
  mutable errors : string list;  (** failed checks: the run is not correct *)
}

(* Key generation is deterministic but not free: derive each identity's
   keypair and each workload's keyring once per process. *)
let memo_lock = Mutex.create ()

let memo tbl key make =
  Mutex.lock memo_lock;
  let v =
    match Hashtbl.find_opt tbl key with
    | Some v -> v
    | None ->
      let v = make () in
      Hashtbl.replace tbl key v;
      v
  in
  Mutex.unlock memo_lock;
  v

let keypairs = Hashtbl.create 4
let keyrings = Hashtbl.create 4
let keypair uid = memo keypairs uid (fun () -> Demokeys.keypair uid)

let keyring spec =
  memo keyrings spec.name (fun () ->
      Demokeys.keyring ~mac_servers:(max 1 spec.shards * Cluster.n) (clients spec))

let make_router ?(tweak = Fun.id) spec ~uid =
  Store.Router.create ~table:(table spec) ~uid ~key:(keypair uid) ~keyring:(keyring spec)
    ~config_of:(fun shard -> tweak (config spec shard)) ()

let make_worker spec ~seed ~prefix ~keys ~wid =
  let uid = client_name wid in
  let st = Random.State.make [| seed; wid; Hashtbl.hash prefix; Hashtbl.hash spec.name |] in
  let pick = spec.picker ~keys ~write_ratio:spec.write_ratio st in
  let next () =
    let key, write = pick () in
    { key; write }
  in
  {
    spec; wid; uid; group = group spec ~prefix ~worker:wid; keys; model = Model.create ~seed; next;
    router = make_router spec ~uid; prev_write = false; held = [];
    read_lat = Samples.create (); raw_lat = Samples.create (); write_lat = Samples.create ();
    session_lat = Samples.create (); connect_lat = Samples.create (); disconnect_lat = Samples.create ();
    ops = 0; reads = 0; writes = 0; failed = 0; rounds = 0; flushes = 0; useful_flushes = 0;
    read_rounds = 0; client_reads = 0; read_rpcs = 0; write_rpcs = 0; count_rpcs = false; after_op = ignore; errors = [];
  }

(* A fresh router for the same identity and group, with the model and
   the op stream carried over (after a server restart). *)
let renew ?tweak w = w.router <- make_router ?tweak w.spec ~uid:w.uid

let error w fmt = Printf.ksprintf (fun s -> w.errors <- s :: w.errors) fmt

(* A failed op is counted, not a failed check; the first few are
   reported on stderr. *)
let note_failure w fmt =
  Printf.ksprintf (fun s -> if w.failed <= 3 then Printf.eprintf "%s: failed op: %s\n%!" w.uid s) fmt

let uid_of w key = Store.Uid.make ~group:w.group ~item:(item key)

let now = Unix.gettimeofday

let rpcs () = (Store.Metrics.read ()).Store.Metrics.rpcs

(* One op, checked against the model. *)
let do_op w op =
  let uid = uid_of w op.key in
  let us = Store.Uid.to_string uid in
  let r0 = if w.count_rpcs then rpcs () else 0 in
  w.ops <- w.ops + 1;
  if op.write then begin
    w.writes <- w.writes + 1;
    let size = w.spec.size op.key in
    let version, v = Model.next_value w.model ~uid:us ~size in
    let t0 = now () in
    match Store.Router.write w.router ~uid v with
    | Ok () ->
      Samples.add w.write_lat (now () -. t0);
      if w.count_rpcs then w.write_rpcs <- w.write_rpcs + (rpcs () - r0);
      Model.commit w.model ~uid:us ~version ~size v;
      w.prev_write <- true;
      let every = escalate_every w.spec in
      if every > 0 then begin
        let held = op.key :: w.held in
        w.held <- (if List.length held >= every then [] else held)
      end
    | Error e ->
      w.failed <- w.failed + 1;
      Model.lost w.model ~uid:us;
      note_failure w "write %s: %s" us (Store.Client.error_to_string e)
  end
  else begin
    w.reads <- w.reads + 1;
    let after_write = w.prev_write in
    (match w.held with
    | [] -> ()
    | held ->
      w.flushes <- w.flushes + 1;
      if List.mem op.key held then w.useful_flushes <- w.useful_flushes + 1;
      w.held <- []);
    let t0 = now () in
    match Store.Router.read w.router ~uid with
    | Ok got ->
      let dt = now () -. t0 in
      if w.count_rpcs then w.read_rpcs <- w.read_rpcs + (rpcs () - r0);
      Samples.add (if after_write then w.raw_lat else w.read_lat) dt;
      w.prev_write <- false;
      (match Model.expected w.model ~uid:us with
      | Some expected when not (Model.read_matches ~expected ~got) ->
        error w "read %s returned %d bytes that differ from the last write" us (String.length got)
      | _ -> ())
    | Error e ->
      w.failed <- w.failed + 1;
      w.prev_write <- false;
      note_failure w "read %s: %s" us (Store.Client.error_to_string e)
  end

let connect w =
  let t0 = now () in
  (match Store.Router.session w.router ~group:w.group with
  | Ok _ -> ()
  | Error e -> error w "connect %s failed: %s" w.group (Store.Client.error_to_string e));
  let dt = now () -. t0 in
  w.prev_write <- false;
  w.held <- [];
  dt

let disconnect w =
  List.iter
    (fun (_, c) ->
      let s = Store.Client.stats c in
      w.read_rounds <- w.read_rounds + s.Store.Client.read_rounds;
      w.client_reads <- w.client_reads + s.Store.Client.reads)
    (Store.Router.sessions w.router);
  let t0 = now () in
  (match Store.Router.disconnect w.router with
  | Ok () -> ()
  | Error e -> error w "disconnect failed: %s" (Store.Client.error_to_string e));
  now () -. t0

(* Disconnect (context store) and connect again (context acquisition):
   one session boundary. *)
let reconnect w =
  for _ = 1 to w.spec.session_repeats do
    let d = disconnect w in
    let c = connect w in
    Samples.add w.disconnect_lat d;
    Samples.add w.connect_lat c;
    Samples.add w.session_lat (d +. c)
  done

(* One round of the workers: their ops take turns, then each
   reconnects. *)
let round ws =
  match ws with
  | [] -> ()
  | w0 :: _ ->
    for i = 1 to w0.spec.round_ops do
      List.iter
        (fun w ->
          do_op w (w.next ());
          w.after_op i)
        ws
    done;
    List.iter
      (fun w ->
        reconnect w;
        w.rounds <- w.rounds + 1)
      ws

(* Write every key once (version 1). *)
let preload w =
  for key = 0 to w.keys - 1 do
    let uid = uid_of w key in
    let us = Store.Uid.to_string uid in
    let size = w.spec.size key in
    let version, v = Model.next_value w.model ~uid:us ~size in
    match Store.Router.write w.router ~uid v with
    | Ok () -> Model.commit w.model ~uid:us ~version ~size v
    | Error e ->
      Model.lost w.model ~uid:us;
      error w "preload %s failed: %s" us (Store.Client.error_to_string e)
  done

(* Clear the measurement state (samples, counters) between phases; the
   model, sessions and op stream carry on. *)
let reset_measurements w =
  List.iter (fun (s : Samples.t) -> s.len <- 0)
    [ w.read_lat; w.raw_lat; w.write_lat; w.session_lat; w.connect_lat; w.disconnect_lat ];
  w.ops <- 0; w.reads <- 0; w.writes <- 0; w.failed <- 0; w.rounds <- 0; w.flushes <- 0;
  w.useful_flushes <- 0; w.read_rounds <- 0; w.client_reads <- 0; w.read_rpcs <- 0; w.write_rpcs <- 0

(* Run [f] with all the workers over the live transport, on the calling
   thread: the client thread of every workload. Two client threads and
   four servers saturate a 2-core machine, and latency then measures its
   run queue more than the store (see the README). *)
let on_thread cluster workers f =
  let shard_of =
    if cluster.Cluster.shards = 0 then fun _ -> None else fun node -> Some (node / Cluster.n)
  in
  try Tcpnet.Live.run ~endpoints:(Cluster.endpoint cluster) ~shard_of (fun () -> f workers)
  with e -> List.iter (fun w -> error w "worker raised %s" (Printexc.to_string e)) workers

(* Run [f] once per worker, in turn. *)
let on_workers cluster workers f = on_thread cluster workers (List.iter f)

(* Rounds per worker for a phase of about [seconds] at the nominal
   rate: every run of one length does the same work, whatever the
   machine's speed that day, so counts, storage and memory figures do
   not drift with throughput. *)
let rounds_for spec ~seconds =
  max 1
    (int_of_float
       (Float.round (seconds *. spec.nominal_rate /. float_of_int (spec.round_ops * spec.workers))))

(* [rounds] whole rounds on every worker; returns (start, wall time). *)
let timed_phase cluster workers ~rounds =
  let t0 = now () in
  on_thread cluster workers (fun ws ->
      for _ = 1 to rounds do
        round ws
      done);
  (t0, now () -. t0)
