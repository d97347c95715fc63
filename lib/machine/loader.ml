module Layout = Sweep_isa.Layout

let load nvm (prog : Sweep_isa.Program.t) =
  let { Sweep_isa.Program.addrs; values } = prog.meta.initial_data in
  Array.iteri (fun i addr -> Sweep_mem.Nvm.poke_word nvm addr values.(i)) addrs;
  let layout = prog.layout in
  for r = 0 to Sweep_isa.Reg.count - 1 do
    Sweep_mem.Nvm.poke_word nvm (Layout.reg_slot layout r) 0
  done;
  Sweep_mem.Nvm.poke_word nvm layout.ckpt_pc prog.entry
