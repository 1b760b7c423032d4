type t =
  | Fetch of { time : int; pc : int; word : int; transitions : int }
  | Bus of {
      time : int;
      pc : int;
      encoded : int array;
      transitions : int array;
    }
  | Block_entry of { time : int; pc : int; block : int }
  | Bbit_probe of { time : int; pc : int; hit : bool }
  | Decode of { time : int; pc : int }
  | Tt_program of { time : int; index : int }

let time = function
  | Fetch { time; _ }
  | Bus { time; _ }
  | Block_entry { time; _ }
  | Bbit_probe { time; _ }
  | Decode { time; _ }
  | Tt_program { time; _ } ->
      time
