let total_bytes rows = List.fold_left (fun acc (_, b) -> acc + String.length b) 0 rows
