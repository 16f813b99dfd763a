let party_of_span s =
  match Trace.find_attr s "party" with
  | Some (Json.Str p) -> p
  | _ -> "run"

(* Stable party -> Chrome thread-id assignment, in order of first
   appearance; "run" (spans without a party, the roots) is tid 0. *)
let tid_table spans =
  let order = ref [ "run" ] in
  List.iter
    (fun s ->
      let p = party_of_span s in
      if not (List.mem p !order) then order := !order @ [ p ])
    spans;
  let table = Hashtbl.create 8 in
  List.iteri (fun i p -> Hashtbl.add table p i) !order;
  (table, !order)

let us ns = Int64.to_float ns /. 1e3

let args_of attrs = match attrs with [] -> [] | attrs -> [ ("args", Json.Obj attrs) ]

type process = {
  pr_pid : int;
  pr_name : string;
  pr_spans : Trace.span list;
  pr_events : Trace.event list;
}

let process_of_trace ?(pid = 1) ?(name = "") trace =
  { pr_pid = pid; pr_name = name; pr_spans = Trace.spans trace; pr_events = Trace.events trace }

(* One process's slice of the Chrome event array: its metadata (the
   process_name only when the process is named — the anonymous
   single-process export stays byte-identical to the historical format),
   its thread lanes, its spans, its instants. *)
let chrome_events_of p =
  let tids, order = tid_table p.pr_spans in
  let tid_of name = Option.value ~default:0 (Hashtbl.find_opt tids name) in
  let process_metadata =
    if String.equal p.pr_name "" then []
    else
      [
        Json.Obj
          [
            ("name", Json.Str "process_name");
            ("ph", Json.Str "M");
            ("pid", Json.Int p.pr_pid);
            ("tid", Json.Int 0);
            ("args", Json.Obj [ ("name", Json.Str p.pr_name) ]);
          ];
      ]
  in
  let metadata =
    List.map
      (fun name ->
        Json.Obj
          [
            ("name", Json.Str "thread_name");
            ("ph", Json.Str "M");
            ("pid", Json.Int p.pr_pid);
            ("tid", Json.Int (tid_of name));
            ("args", Json.Obj [ ("name", Json.Str name) ]);
          ])
      order
  in
  let span_events =
    List.map
      (fun s ->
        Json.Obj
          ([
             ("name", Json.Str s.Trace.name);
             ("cat", Json.Str (Trace.kind_name s.Trace.kind));
             ("ph", Json.Str "X");
             ("pid", Json.Int p.pr_pid);
             ("tid", Json.Int (tid_of (party_of_span s)));
             ("ts", Json.Float (us s.Trace.start_ns));
             ("dur", Json.Float (us (Trace.duration_ns s)));
           ]
          @ args_of (("span_id", Json.Int s.Trace.id) :: Trace.attrs s)))
      p.pr_spans
  in
  let span_by_id =
    let t = Hashtbl.create 64 in
    List.iter (fun s -> Hashtbl.replace t s.Trace.id s) p.pr_spans;
    t
  in
  let instant_events =
    List.map
      (fun e ->
        let tid =
          match e.Trace.ev_span with
          | Some id ->
            (match Hashtbl.find_opt span_by_id id with
             | Some s -> tid_of (party_of_span s)
             | None -> 0)
          | None -> 0
        in
        Json.Obj
          ([
             ("name", Json.Str e.Trace.ev_name);
             ("cat", Json.Str "event");
             ("ph", Json.Str "i");
             ("s", Json.Str "t");
             ("pid", Json.Int p.pr_pid);
             ("tid", Json.Int tid);
             ("ts", Json.Float (us e.Trace.ev_ns));
           ]
          @ args_of e.Trace.ev_attrs))
      p.pr_events
  in
  process_metadata @ metadata @ span_events @ instant_events

let has_content p = p.pr_spans <> [] || p.pr_events <> []

let chrome_json_processes processes =
  Json.to_string_pretty
    (Json.List (List.concat_map chrome_events_of (List.filter has_content processes)))

let span_json ~pid s =
  Json.Obj
    [
      ("type", Json.Str "span");
      ("pid", Json.Int pid);
      ("id", Json.Int s.Trace.id);
      ("parent", match s.Trace.parent with Some p -> Json.Int p | None -> Json.Null);
      ("name", Json.Str s.Trace.name);
      ("kind", Json.Str (Trace.kind_name s.Trace.kind));
      ("start_ns", Json.Int (Int64.to_int s.Trace.start_ns));
      ("dur_ns", Json.Int (Int64.to_int (Trace.duration_ns s)));
      ("attrs", Json.Obj (Trace.attrs s));
    ]

let event_json ~pid e =
  Json.Obj
    [
      ("type", Json.Str "event");
      ("pid", Json.Int pid);
      ("name", Json.Str e.Trace.ev_name);
      ("span", match e.Trace.ev_span with Some p -> Json.Int p | None -> Json.Null);
      ("at_ns", Json.Int (Int64.to_int e.Trace.ev_ns));
      ("attrs", Json.Obj e.Trace.ev_attrs);
    ]

let clock_line =
  Json.Obj [ ("type", Json.Str "clock"); ("unit", Json.Str "ns"); ("monotonic", Json.Bool true) ]

let jsonl_processes processes =
  let buf = Buffer.create 4096 in
  let line v =
    Buffer.add_string buf (Json.to_string v);
    Buffer.add_char buf '\n'
  in
  line clock_line;
  List.iter
    (fun p ->
      line
        (Json.Obj
           [ ("type", Json.Str "process"); ("pid", Json.Int p.pr_pid);
             ("name", Json.Str p.pr_name) ]);
      List.iter (fun s -> line (span_json ~pid:p.pr_pid s)) p.pr_spans;
      List.iter (fun e -> line (event_json ~pid:p.pr_pid e)) p.pr_events)
    (List.filter has_content processes);
  Buffer.contents buf

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc contents)

let format_of_path path =
  if Filename.check_suffix path ".jsonl" then `Jsonl else `Chrome
