(* The store_server processes of one benchmark run, and the /proc and
   HTTP readers the benchmark measures them with.

   Every spawned pid is registered in [live] until it has been reaped,
   and [kill_everything] (installed with [at_exit]) SIGKILLs and reaps
   whatever is left, so no exit path — a failed check, an exception, a
   signal — leaves a server behind. *)

let n = 4
let b = 1

let live : (int, unit) Hashtbl.t = Hashtbl.create 16
let live_lock = Mutex.create ()

let with_live f =
  Mutex.lock live_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock live_lock) f

(* Every port this process reserved, so the exit check can prove no
   listener survived the run. *)
let reserved_ports : int list ref = ref []

(* [k] free ports, distinct: every socket stays bound until all are
   chosen, so the kernel cannot hand the same port out twice. *)
let reserve_ports k =
  let fds = List.init k (fun _ -> Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0) in
  Fun.protect ~finally:(fun () -> List.iter Unix.close fds) @@ fun () ->
  let ports =
    List.map
      (fun fd ->
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> p
        | Unix.ADDR_UNIX _ -> assert false)
      fds
  in
  reserved_ports := ports @ !reserved_ports;
  Array.of_list ports

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid
  | exception Unix.Unix_error _ -> ()

let reap pid =
  waitpid_retry pid;
  with_live (fun () -> Hashtbl.remove live pid)

(* A pid once reaped may be handed to another process: signal only
   servers not yet reaped. *)
let is_live pid = with_live (fun () -> Hashtbl.mem live pid)
let signal pid s = if is_live pid then try Unix.kill pid s with Unix.Unix_error _ -> ()

let kill_everything () =
  let pids = with_live (fun () -> Hashtbl.fold (fun p () acc -> p :: acc) live []) in
  List.iter (fun p -> try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ()) pids;
  List.iter reap pids

(* ---- /proc readers ---- *)

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
        let buf = Buffer.create 4096 in
        let chunk = Bytes.create 4096 in
        let rec go () =
          match input ic chunk 0 4096 with
          | 0 -> ()
          | k ->
            Buffer.add_subbytes buf chunk 0 k;
            go ()
        in
        (try go () with Sys_error _ -> ());
        Some (Buffer.contents buf))

(* Fields after the parenthesised command name of /proc/<pid>/stat:
   index 0 is field 3 (state), so ppid is 1, utime 11, stime 12. *)
let stat_fields pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> None
  | Some s -> (
    match String.rindex_opt s ')' with
    | None -> None
    | Some i ->
      let rest = String.sub s (i + 2) (String.length s - i - 2) in
      Some (Array.of_list (String.split_on_char ' ' (String.trim rest))))

(* None when the process is gone: a reading of a dead server is not a
   zero. *)
let cpu_ticks pid =
  match stat_fields pid with
  | Some f when Array.length f > 12 -> (
    match (int_of_string_opt f.(11), int_of_string_opt f.(12)) with
    | Some u, Some s -> Some (u + s)
    | _ -> None)
  | _ -> None

(* A zombie has no VmRSS line, so an exited but unreaped server reads
   None too. *)
let rss_kib pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | None -> None
  | Some s ->
    List.find_map
      (fun line ->
        if String.length line > 6 && String.sub line 0 6 = "VmRSS:" then
          Scanf.sscanf_opt (String.sub line 6 (String.length line - 6)) " %d" Fun.id
        else None)
      (String.split_on_char '\n' s)

(* Processes whose parent is this one — zombies included, since a child
   not yet reaped is a leak too. *)
let children () =
  let self = Unix.getpid () in
  Array.fold_left
    (fun acc name ->
      match int_of_string_opt name with
      | None -> acc
      | Some pid -> (
        match stat_fields pid with
        | Some f when Array.length f > 1 && int_of_string_opt f.(1) = Some self ->
          pid :: acc
        | _ -> acc))
    [] (try Sys.readdir "/proc" with Sys_error _ -> [||])

(* Local ports in LISTEN state (st = 0A) among [ports]. *)
let listening ports =
  let parse file =
    match read_file file with
    | None -> []
    | Some s ->
      List.filter_map
        (fun line ->
          match String.split_on_char ' ' (String.trim line) |> List.filter (( <> ) "") with
          | _ :: local :: _ :: st :: _ when st = "0A" -> (
            match String.rindex_opt local ':' with
            | Some i -> int_of_string_opt ("0x" ^ String.sub local (i + 1) (String.length local - i - 1))
            | None -> None)
          | _ -> None)
        (String.split_on_char '\n' s)
  in
  let open_ports = parse "/proc/net/tcp" @ parse "/proc/net/tcp6" in
  List.filter (fun p -> List.mem p open_ports) ports

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error _ -> ()

(* ---- /metrics scraping ---- *)

let http_get port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let req = Printf.sprintf "GET %s HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n" path in
  ignore (Unix.write_substring fd req 0 (String.length req));
  let buf = Buffer.create 65536 in
  let chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 65536 with
    | 0 -> ()
    | k ->
      Buffer.add_subbytes buf chunk 0 k;
      go ()
  in
  go ();
  let s = Buffer.contents buf in
  let rec body i =
    if i + 4 > String.length s then ""
    else if String.sub s i 4 = "\r\n\r\n" then String.sub s (i + 4) (String.length s - i - 4)
    else body (i + 1)
  in
  body 0

(* Prometheus text lines as (name, labels, value); comments skipped. *)
type sample = { name : string; labels : string; value : float }

let parse_metrics text =
  List.filter_map
    (fun line ->
      if line = "" || line.[0] = '#' then None
      else
        match String.rindex_opt line ' ' with
        | None -> None
        | Some i -> (
          let key = String.sub line 0 i in
          match float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) with
          | None -> None
          | Some value -> (
            match String.index_opt key '{' with
            | Some j ->
              Some { name = String.sub key 0 j; labels = String.sub key j (String.length key - j); value }
            | None -> Some { name = key; labels = ""; value })))
    (String.split_on_char '\n' text)

let contains s sub =
  let ls = String.length s and lsub = String.length sub in
  let rec at i = i + lsub <= ls && (String.sub s i lsub = sub || at (i + 1)) in
  at 0

(* Sum of every sample called [name] whose labels contain all [having]. *)
let sum_metric samples ?(having = []) name =
  List.fold_left
    (fun acc s ->
      if s.name = name && List.for_all (contains s.labels) having then acc +. s.value else acc)
    0.0 samples

(* ---- the cluster ---- *)

type t = {
  exe : string;
  dir : string;
  shards : int;  (** 0 = unsharded daemons; otherwise every process hosts shards 0..shards-1 *)
  clients : string;
  metrics : bool;
  mutable pids : int array;
  mutable ports : int array;
  mutable mports : int array;
}

let create ~exe ~dir ~shards ~clients ~metrics =
  Unix.mkdir dir 0o755;
  { exe; dir; shards; clients = String.concat "," clients; metrics; pids = [||]; ports = [||]; mports = [||] }

let snapshot_path t r = Filename.concat t.dir (Printf.sprintf "s%d.snap" r)
let log_path t r = Filename.concat t.dir (Printf.sprintf "s%d.log" r)

let spawn t r =
  let peers =
    String.concat ","
      (List.filter_map
         (fun r' -> if r' = r then None else Some (Printf.sprintf "127.0.0.1:%d" t.ports.(r')))
         (List.init n Fun.id))
  in
  let sharding =
    if t.shards = 0 then []
    else
      [ "--shards"; String.concat "," (List.init t.shards string_of_int);
        "--shards-total"; string_of_int t.shards ]
  in
  let metrics = if t.metrics then [ "--metrics-port"; string_of_int t.mports.(r) ] else [] in
  let argv =
    Array.of_list
      ([ t.exe; "--id"; string_of_int r; "--port"; string_of_int t.ports.(r);
         "-n"; string_of_int n; "-b"; string_of_int b; "--clients"; t.clients;
         "--peers"; peers; "--snapshot"; snapshot_path t r ]
      @ sharding @ metrics)
  in
  let log =
    Unix.openfile (log_path t r)
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log; Unix.close devnull)
      (fun () ->
        with_live (fun () ->
            let pid = Unix.create_process t.exe argv devnull log log in
            Hashtbl.replace live pid ();
            pid))
  in
  pid

let wait_listening port ~deadline =
  let rec loop () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    let up =
      try
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        true
      with Unix.Unix_error _ -> false
    in
    Unix.close fd;
    if not up then
      if Unix.gettimeofday () > deadline then
        failwith (Printf.sprintf "store_server on port %d never came up" port)
      else begin
        Thread.delay 0.005;
        loop ()
      end
  in
  loop ()

let status_to_string = function
  | Unix.WEXITED c -> Printf.sprintf "exited with code %d" c
  | Unix.WSIGNALED s when s = Sys.sigkill -> "was killed (SIGKILL)"
  | Unix.WSIGNALED s when s = Sys.sigsegv -> "crashed (SIGSEGV)"
  | Unix.WSIGNALED s when s = Sys.sigabrt -> "aborted (SIGABRT)"
  | Unix.WSIGNALED s -> Printf.sprintf "was killed by signal %d (OCaml numbering)" s
  | Unix.WSTOPPED s -> Printf.sprintf "was stopped by signal %d (OCaml numbering)" s

(* The last lines of server [r]'s log, for the report of its death. *)
let log_tail t r =
  match read_file (log_path t r) with
  | None -> ""
  | Some s ->
    let lines = List.filter (( <> ) "") (String.split_on_char '\n' s) in
    let k = List.length lines in
    String.concat " | " (List.filteri (fun i _ -> i >= k - 4) lines)

(* Servers that have ended since their launch (or the last call), each
   reaped and described: a server may end only when the run stops it. *)
let exited t =
  List.filter_map
    (fun (r, pid) ->
      if not (is_live pid) then None
      else
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> None
        | _, st ->
          with_live (fun () -> Hashtbl.remove live pid);
          Some (Printf.sprintf "server %d (pid %d) %s; its log ends: %s" r pid (status_to_string st) (log_tail t r))
        | exception Unix.Unix_error _ -> None)
    (List.mapi (fun r pid -> (r, pid)) (Array.to_list t.pids))

(* Start all n servers on fresh ports (restored from their snapshots
   when the files exist) and wait until each accepts connections and is
   still running. *)
let launch t =
  let ports = reserve_ports (if t.metrics then 2 * n else n) in
  t.ports <- Array.sub ports 0 n;
  t.mports <- Array.sub ports n (Array.length ports - n);
  t.pids <- Array.init n (fun r -> spawn t r);
  let deadline = Unix.gettimeofday () +. 30.0 in
  Array.iter (fun p -> wait_listening p ~deadline) t.ports;
  Array.iter (fun p -> wait_listening p ~deadline) t.mports;
  match exited t with
  | [] -> ()
  | dead -> failwith ("at launch: " ^ String.concat "; " dead)

let endpoint t gid =
  let groups = max 1 t.shards in
  if gid >= 0 && gid < groups * n then Some ("127.0.0.1", t.ports.(gid mod n)) else None

let endpoints t = Array.to_list (Array.map (fun p -> ("127.0.0.1", p)) t.ports)

(* Forget the transport's state for this cluster's endpoints: the pool
   keeps dead connections and backoff rows otherwise. *)
let evict t = List.iter (Tcpnet.Pool.evict (Tcpnet.Pool.shared ())) (endpoints t)

let kill t =
  let pids = List.filter is_live (Array.to_list t.pids) in
  List.iter (fun p -> signal p Sys.sigkill) pids;
  List.iter reap pids;
  evict t;
  t.pids <- [||]

(* Graceful departure, one server at a time so each drain pushes its
   gossip backlog to peers that are still up. Returns what went wrong:
   every server must exit with code 0 within the deadline. *)
let drain t =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  Array.iteri
    (fun r pid ->
      if not (is_live pid) then problem "server %d (pid %d) had exited before the drain" r pid
      else begin
      signal pid Sys.sigterm;
      let deadline = Unix.gettimeofday () +. 20.0 in
      let rec wait () =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ ->
          if Unix.gettimeofday () > deadline then begin
            problem "server %d (pid %d) did not exit within 20 s of SIGTERM" r pid;
            signal pid Sys.sigkill;
            reap pid
          end
          else begin
            Thread.delay 0.005;
            wait ()
          end
        | _, Unix.WEXITED 0 -> with_live (fun () -> Hashtbl.remove live pid)
        | _, st ->
          with_live (fun () -> Hashtbl.remove live pid);
          problem "server %d (pid %d) %s on SIGTERM" r pid (status_to_string st)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
        | exception Unix.Unix_error (e, _, _) ->
          with_live (fun () -> Hashtbl.remove live pid);
          problem "server %d (pid %d) could not be waited for: %s" r pid (Unix.error_message e)
      in
      wait ()
      end)
    t.pids;
  evict t;
  t.pids <- [||];
  List.rev !problems

(* Snapshot files of every server (sharded hosts write FILE.s<shard>). *)
let snapshot_files t =
  Array.to_list (Sys.readdir t.dir)
  |> List.filter (fun f ->
         String.length f > 1 && f.[0] = 's' && contains f ".snap"
         && not (Filename.check_suffix f ".tmp"))
  |> List.sort compare
  |> List.map (Filename.concat t.dir)

let snapshot_bytes t =
  List.fold_left (fun acc f -> acc + (Unix.stat f).Unix.st_size) 0 (snapshot_files t)

(* The snapshot files a drained cluster must have written: one per
   server, or one per server and hosted shard (FILE.s<shard>). *)
let missing_snapshots t =
  let expected r =
    if t.shards = 0 then [ snapshot_path t r ]
    else List.init t.shards (fun s -> Printf.sprintf "%s.s%d" (snapshot_path t r) s)
  in
  List.concat_map expected (List.init n Fun.id)
  |> List.filter (fun f -> match Unix.stat f with st -> st.Unix.st_size = 0 | exception Unix.Unix_error _ -> true)

(* Sums over the servers; None if any of them is gone. *)
let sum_all read t =
  Array.fold_left
    (fun acc p -> match (acc, read p) with Some a, Some v -> Some (a + v) | _ -> None)
    (Some 0) t.pids

let cpu_ticks_all = sum_all cpu_ticks
let rss_kib_all = sum_all rss_kib

(* Summed VmRSS every 100 ms on a thread of its own; the returned
   function stops the sampler and gives the (time, KiB) samples, KiB
   None where a server was gone. *)
let sample_rss t =
  let samples = ref [] and stop = Atomic.make false in
  let th =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          samples := (Unix.gettimeofday (), rss_kib_all t) :: !samples;
          Thread.delay 0.1
        done)
      ()
  in
  fun () ->
    Atomic.set stop true;
    Thread.join th;
    List.rev !samples

let scrape t = List.concat_map (fun p -> parse_metrics (http_get p "/metrics")) (Array.to_list t.mports)
