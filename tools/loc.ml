(* Non-comment, non-blank line counter for OCaml sources:
     dune exec tools/loc.exe -- FILE...
   prints each file's count and the total.  Comments nest, and a string
   literal (in code or inside a comment) never opens or closes one. *)

let count_lines text =
  let n = String.length text in
  let code = Buffer.create n in
  let rec go i depth in_string =
    if i < n then
      let c = text.[i] and next = if i + 1 < n then text.[i + 1] else ' ' in
      let keep () = if depth = 0 || c = '\n' then Buffer.add_char code c in
      if in_string then begin
        keep ();
        if c = '\\' && i + 1 < n then begin
          if depth = 0 then Buffer.add_char code next;
          go (i + 2) depth true
        end
        else go (i + 1) depth (c <> '"')
      end
      else if c = '(' && next = '*' then go (i + 2) (depth + 1) false
      else if c = '*' && next = ')' && depth > 0 then go (i + 2) (depth - 1) false
      else if c = '\'' && i + 2 < n && (text.[i + 2] = '\'' || next = '\\') then begin
        (* A character literal: its quote or paren is not a delimiter. *)
        let close = String.index_from text (i + 2) '\'' in
        if depth = 0 then Buffer.add_string code (String.sub text i (close - i + 1));
        go (close + 1) depth false
      end
      else begin
        keep ();
        go (i + 1) depth (c = '"')
      end
  in
  go 0 0 false;
  String.split_on_char '\n' (Buffer.contents code)
  |> List.filter (fun l -> String.trim l <> "")
  |> List.length

let () =
  let files = List.tl (Array.to_list Sys.argv) in
  let total =
    List.fold_left
      (fun acc file ->
        let n = count_lines (In_channel.with_open_bin file In_channel.input_all) in
        Printf.printf "%6d  %s\n" n file;
        acc + n)
      0 files
  in
  Printf.printf "%6d  total\n" total
