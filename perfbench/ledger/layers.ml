(* Per-layer probes of the traced run. Each times calls into one layer's
   public functions from the outside, on inputs shaped like the
   workload's, so the program itself carries no benchmark code. *)

let n = Cluster.n
let b = Cluster.b

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

(* Median seconds of [reps] calls of [f i]. *)
let median_time reps f =
  Model.median (List.init reps (fun i -> fst (time (fun () -> ignore (Sys.opaque_identity (f i))))))

let us s = s *. 1e6

type probe_inputs = {
  spec : Drive.spec;
  seed : int;
  ctx : Store.Context.t;  (** a live session's context, for context signing *)
}

let sample_uid = Store.Uid.make ~group:"probe" ~item:(Drive.item 1)

(* What the client authenticates for a workload value: the value
   itself, or — at or above the dispersal threshold — the descriptor's
   digest root, with the coding descriptor alongside. *)
let sample_value p =
  let v = Model.value ~seed:p.seed ~uid:"probe/k1" ~version:1 ~size:(p.spec.Drive.size 1) in
  let threshold = (Drive.config p.spec 0).Store.Client.dispersal_threshold in
  if threshold > 0 && String.length v >= threshold then
    let meta, _ = Store.Dispersal.plan ~k:(b + 1) ~n v in
    (Store.Dispersal.meta_root meta, Some meta)
  else (v, None)

(* signing: RSA write signature, cold-cache verification, MAC vector,
   context signature. *)
let signing p =
  let writer = Drive.client_name 0 in
  let key = Drive.keypair writer and keyring = Drive.keyring p.spec in
  let uid = sample_uid and v, frags = sample_value p in
  let sign i = Store.Signing.sign_write ~key ~writer ~uid ~stamp:(Store.Stamp.scalar (i + 1)) ?frags v in
  let sign_us = us (median_time 31 sign) in
  let signed = Array.init 31 sign in
  (* a fresh one-entry cache per call: every verification runs the RSA math *)
  let verify_us =
    us (median_time 31 (fun i ->
        Store.Signing.reset_sigcache ~capacity:1 ();
        Store.Signing.verify_write keyring signed.(i)))
  in
  Store.Signing.reset_sigcache ();
  let servers = Store.Router.shard_servers ~n 0 in
  let mac_us =
    us (median_time 31 (fun i ->
        Store.Signing.mac_write keyring ~writer ~uid ~stamp:(Store.Stamp.scalar (i + 1)) ?frags ~servers v))
  in
  let ctx_us =
    us (median_time 31 (fun i ->
        Store.Signing.sign_context ~key ~client:writer ~group:"probe" ~seq:i p.ctx))
  in
  (sign_us, verify_us, mac_us, ctx_us, signed.(0))

(* wire: the envelope a workload write travels in. *)
let wire (w : Store.Payload.write) =
  let env =
    { Store.Payload.token = None; epoch = 0; request = Store.Payload.Write_req { write = w; await_ack = true } }
  in
  let raw = Store.Payload.encode_envelope env in
  (* each sample times a batch: one call is below the clock's resolution *)
  let batch = 1000 in
  let per_call f = us (median_time 11 (fun _ -> for _ = 1 to batch do ignore (Sys.opaque_identity (f ())) done)) /. float_of_int batch in
  let enc = per_call (fun () -> Store.Payload.encode_envelope env) in
  let dec = per_call (fun () -> Store.Payload.decode_envelope raw) in
  (String.length raw, enc, dec)

(* dispersal: k-of-n coding (with fragment digests), reconstruction from
   the last k fragments, and SHA-256, each per MiB. *)
let dispersal ~seed =
  let mib = 1 lsl 20 in
  let v = Model.value ~seed ~uid:"probe/bulk" ~version:1 ~size:mib in
  let k = b + 1 in
  let meta, frags = Store.Dispersal.plan ~k ~n v in
  let pieces = List.init k (fun j -> (n - j, frags.(n - j - 1))) in
  let enc = median_time 5 (fun _ -> Store.Dispersal.plan ~k ~n v) in
  let dec = median_time 5 (fun _ -> Store.Dispersal.decode_fragments meta pieces) in
  let dig = median_time 5 (fun _ -> Crypto.Sha256.digest v) in
  if Store.Dispersal.decode_fragments meta pieces <> Some v then
    failwith "dispersal probe: reconstruction differs from the value";
  (enc *. 1e3, dec *. 1e3, dig *. 1e3)

(* persist: load every drained snapshot into this process, time loads
   and saves, and count items, held writes and audit entries. *)
type persist = {
  items : int;
  held : int;
  audit : int;
  load_ms : float;
  save_ms : float;
}

let gid_of_snapshot path =
  let f = Filename.basename path in
  match Scanf.sscanf f "s%d.snap.s%d%!" (fun r s -> (r, s)) with
  | r, s -> (s * n) + r
  | exception _ -> Scanf.sscanf f "s%d.snap%!" Fun.id

let persist spec ~files ~uids ~scratch =
  let keyring = Drive.keyring spec in
  let loaded =
    List.map
      (fun path ->
        let dt, r = time (fun () -> Store.Server.load_result ~id:(gid_of_snapshot path) ~keyring ~n ~b ~path ()) in
        match r with
        | Ok s -> (dt, s)
        | Error msg -> failwith (Printf.sprintf "snapshot %s does not load: %s" path msg))
      files
  in
  let saves =
    List.map (fun (_, s) -> fst (time (fun () -> Store.Server.save_file s ~path:scratch))) loaded
  in
  (try Sys.remove scratch with Sys_error _ -> ());
  let sum f = List.fold_left (fun acc (_, s) -> acc + f s) 0 loaded in
  let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (max 1 (List.length l)) in
  {
    items = sum Store.Server.item_count;
    held =
      sum (fun s ->
          List.fold_left
            (fun acc u -> acc + Store.Server.pending_count s u + Store.Server.maced_count s u)
            0 uids);
    audit = sum (fun s -> List.length (Store.Server.audit_log s));
    load_ms = mean (List.map fst loaded) *. 1e3;
    save_ms = mean saves *. 1e3;
  }

(* server: the same op stream through Store.Client on Sim.Direct over
   in-process Store.Server handlers — protocol work with no sockets and
   no threads. Returns median read and write seconds. *)
let protocol_only spec ~seed ~ops =
  let shards = max 1 spec.Drive.shards in
  let keyring = Drive.keyring spec in
  let servers = Array.init (shards * n) (fun gid -> Store.Server.create ~id:gid ~keyring ~n ~b ()) in
  let handlers dst ~from req =
    if dst >= 0 && dst < Array.length servers then
      Store.Server.handler servers.(dst) ~now:(Unix.gettimeofday ()) ~from req
    else None
  in
  let w = Drive.make_worker spec ~seed ~prefix:"" ~keys:spec.Drive.keys ~wid:0 in
  Sim.Direct.run ~handlers (fun () ->
      ignore (Drive.connect w);
      Drive.preload w;
      for _ = 1 to ops do
        Drive.do_op w (w.Drive.next ())
      done;
      ignore (Drive.disconnect w));
  let med s = Model.Samples.pct (Model.Samples.sorted s) 50.0 in
  (med [ w.Drive.read_lat; w.Drive.raw_lat ], med [ w.Drive.write_lat ], w.Drive.errors)
