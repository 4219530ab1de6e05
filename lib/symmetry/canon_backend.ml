let tag () = "c"
