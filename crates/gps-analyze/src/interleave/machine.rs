//! The execution machine: a tiny register bytecode over atomic variables,
//! with a release/acquire *view* memory model.
//!
//! # Memory model
//!
//! This is the standard operational view-based presentation of C11
//! release/acquire (a "sequentially consistent interleaving plus a
//! reordering window": threads interleave one step at a time, but a load
//! may return any sufficiently-recent write, which is exactly how
//! store-buffer and read-reorder effects surface to a program):
//!
//! * Every shared variable keeps its full write history. Write `0` is the
//!   initial zero.
//! * Every thread carries a **view**: for each variable, the index of the
//!   oldest write it may still observe.
//! * A **relaxed load** returns *any* write no older than the thread's
//!   view — later writes by other threads need not be seen, stale values
//!   within the window are fair game. Per-variable coherence is enforced
//!   by a `seen` floor: a thread never re-reads something older than what
//!   it already read.
//! * A **release store** attaches the writer's entire current view to the
//!   write (its *message*). An **acquire load** that reads the write joins
//!   that message into the reader's view — establishing the happens-before
//!   edge.
//! * A **release fence** makes *subsequent* relaxed stores carry the view
//!   captured at the fence; an **acquire fence** retroactively upgrades
//!   *prior* relaxed loads, joining the messages of everything read since.
//!   This is precisely the seqlock idiom's load-bearing pair.
//! * The one mutex hands the holder the view accumulated at every prior
//!   unlock (lock/unlock are acquire/release on the mutex's internal
//!   state), so mutex-protected relaxed accesses are properly visible to
//!   the next holder — but not to lock-free readers, which is the class of
//!   bug the checker exists to catch.
//!
//! SeqCst is deliberately absent: the two protocols under check use only
//! relaxed/acquire/release and fences, and modeling the SC total order
//! would cost state space for nothing.

/// Upper bound on shared variables across all models.
pub const MAX_VARS: usize = 4;
/// Registers per thread.
pub const NREGS: usize = 12;

/// Per-variable write-index vector: "the oldest write of each variable
/// this context is entitled to observe".
pub type View = [u32; MAX_VARS];

fn join(a: &mut View, b: &View) {
    for (x, y) in a.iter_mut().zip(b) {
        *x = (*x).max(*y);
    }
}

/// Memory orderings the protocols use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mo {
    /// No synchronization; value visibility governed by views alone.
    Relaxed,
    /// Loads/fences: join the message view (reads-from edge becomes
    /// happens-before).
    Acquire,
    /// Stores/fences: attach the current view as the message.
    Release,
}

/// One bytecode instruction. Loads, stores, fences, and mutex ops are
/// *visible* (scheduling points); everything else executes invisibly,
/// glued to the preceding visible step.
#[derive(Clone, Copy, Debug)]
pub enum Instr {
    /// `regs[dst] = val`
    Imm {
        /// Destination register.
        dst: u8,
        /// Immediate value.
        val: u64,
    },
    /// `regs[dst] = regs[src] ± imm` (wrapping)
    Addi {
        /// Destination register.
        dst: u8,
        /// Source register.
        src: u8,
        /// Signed immediate addend.
        imm: i64,
    },
    /// `regs[dst] = regs[src] * imm` (wrapping)
    Muli {
        /// Destination register.
        dst: u8,
        /// Source register.
        src: u8,
        /// Immediate factor.
        imm: u64,
    },
    /// `regs[dst] = regs[a] + regs[b]` (wrapping)
    Add {
        /// Destination register.
        dst: u8,
        /// Left operand register.
        a: u8,
        /// Right operand register.
        b: u8,
    },
    /// `regs[dst] = load(var, mo)` — the load's value is a *choice point*.
    Load {
        /// Destination register.
        dst: u8,
        /// Atomic variable index.
        var: u8,
        /// Memory ordering of the load.
        mo: Mo,
    },
    /// `store(var, regs[src], mo)`
    Store {
        /// Atomic variable index.
        var: u8,
        /// Source register.
        src: u8,
        /// Memory ordering of the store.
        mo: Mo,
    },
    /// Standalone fence.
    Fence {
        /// Fence semantics (Acquire or Release).
        mo: Mo,
    },
    /// Acquire the global mutex (blocks while held).
    Lock,
    /// Release the global mutex.
    Unlock,
    /// Unconditional jump.
    Jmp {
        /// Target program counter.
        to: u16,
    },
    /// Branch if `regs[a] == regs[b]`.
    Beq {
        /// Left comparand register.
        a: u8,
        /// Right comparand register.
        b: u8,
        /// Target program counter.
        to: u16,
    },
    /// Branch if `regs[a] != regs[b]`.
    Bne {
        /// Left comparand register.
        a: u8,
        /// Right comparand register.
        b: u8,
        /// Target program counter.
        to: u16,
    },
    /// Branch if `regs[src]` is odd.
    Bodd {
        /// Register tested for oddness.
        src: u8,
        /// Target program counter.
        to: u16,
    },
    /// Invariant: `regs[a] == regs[b]`.
    CkEq {
        /// Left comparand register.
        a: u8,
        /// Right comparand register.
        b: u8,
        /// Invariant description reported on failure.
        what: &'static str,
    },
    /// Invariant: `regs[a] <= regs[b]`.
    CkLe {
        /// Register that must be ≤ `b`.
        a: u8,
        /// Register that must be ≥ `a`.
        b: u8,
        /// Invariant description reported on failure.
        what: &'static str,
    },
    /// Thread done.
    Halt,
}

impl Instr {
    fn visible(&self) -> bool {
        matches!(
            self,
            Instr::Load { .. }
                | Instr::Store { .. }
                | Instr::Fence { .. }
                | Instr::Lock
                | Instr::Unlock
        )
    }
}

/// A thread's program.
#[derive(Clone, Debug)]
pub struct Prog {
    /// Display name (`writer-0`, `reader-1`, …).
    pub name: String,
    /// The instruction sequence.
    pub code: Vec<Instr>,
}

/// Small two-pass assembler: forward labels are declared, used in branches,
/// and bound later; `finish` patches the offsets.
pub struct Asm {
    name: String,
    code: Vec<Instr>,
    bound: Vec<Option<u16>>,
    patches: Vec<(usize, usize)>,
}

/// An unresolved jump target issued by [`Asm::label`].
#[derive(Clone, Copy)]
pub struct Label(usize);

impl Asm {
    /// New program under construction.
    pub fn new(name: impl Into<String>) -> Asm {
        Asm {
            name: name.into(),
            code: Vec::new(),
            bound: Vec::new(),
            patches: Vec::new(),
        }
    }

    /// Declares a label to be bound later (or already — bind at will).
    pub fn label(&mut self) -> Label {
        self.bound.push(None);
        Label(self.bound.len() - 1)
    }

    /// Binds `l` to the current position.
    pub fn bind(&mut self, l: Label) {
        self.bound[l.0] = Some(self.code.len() as u16);
    }

    /// Emits an instruction.
    pub fn op(&mut self, i: Instr) -> &mut Self {
        self.code.push(i);
        self
    }

    /// Emits a branch to `l` (offset patched at finish).
    pub fn branch(&mut self, make: impl Fn(u16) -> Instr, l: Label) -> &mut Self {
        self.patches.push((self.code.len(), l.0));
        self.code.push(make(u16::MAX));
        self
    }

    /// Resolves labels and returns the program.
    ///
    /// # Panics
    /// Panics on an unbound label (a model-construction bug).
    pub fn finish(mut self) -> Prog {
        for (at, label) in &self.patches {
            let to = self.bound[*label].expect("unbound label");
            match &mut self.code[*at] {
                Instr::Jmp { to: t }
                | Instr::Beq { to: t, .. }
                | Instr::Bne { to: t, .. }
                | Instr::Bodd { to: t, .. } => *t = to,
                other => unreachable!("patched non-branch {other:?}"),
            }
        }
        Prog {
            name: self.name,
            code: self.code,
        }
    }
}

/// One write in a variable's history.
#[derive(Clone, Debug)]
struct Write {
    val: u64,
    /// Message view an acquire reader joins (empty for plain relaxed
    /// stores issued with no release fence in effect).
    msg: View,
}

/// Shared memory: per-variable write histories plus the mutex.
#[derive(Clone, Debug)]
pub struct Memory {
    hist: Vec<Vec<Write>>,
    mutex_owner: Option<usize>,
    mutex_view: View,
}

impl Memory {
    fn new(nvars: usize) -> Memory {
        Memory {
            hist: (0..nvars)
                .map(|_| {
                    vec![Write {
                        val: 0,
                        msg: [0; MAX_VARS],
                    }]
                })
                .collect(),
            mutex_owner: None,
            mutex_view: [0; MAX_VARS],
        }
    }

    /// Latest value of `var` (for final-state checks).
    pub fn latest(&self, var: usize) -> u64 {
        self.hist[var].last().map(|w| w.val).unwrap_or(0)
    }

    /// Number of non-initial writes to `var` (for final-state checks).
    pub fn writes(&self, var: usize) -> usize {
        self.hist[var].len() - 1
    }
}

#[derive(Clone, Debug)]
struct Thread {
    pc: usize,
    regs: [u64; NREGS],
    view: View,
    /// Per-variable coherence floor: never re-read older than this.
    seen: View,
    /// Messages of reads since the last acquire fence.
    acq_pending: View,
    /// View captured at the last release fence, if any.
    rel_view: Option<View>,
    halted: bool,
}

/// An invariant violation found on some execution.
#[derive(Clone, Debug)]
pub struct ModelViolation {
    /// The thread whose check failed (or a synthetic `<scheduler>` /
    /// `<final-state>` source).
    pub thread: String,
    /// The check's message.
    pub what: String,
    /// The schedule (thread, load-choice) prefix that produced it.
    pub schedule: Vec<(usize, usize)>,
}

/// The whole system state; cloned at every branch of the exploration.
#[derive(Clone)]
pub struct Machine {
    /// Shared memory.
    pub mem: Memory,
    threads: Vec<Thread>,
    progs: std::rc::Rc<Vec<Prog>>,
}

impl Machine {
    /// Initial state for `progs` over `nvars` variables; all threads are
    /// settled onto their first visible op.
    pub fn new(progs: Vec<Prog>, nvars: usize) -> Result<Machine, ModelViolation> {
        assert!(nvars <= MAX_VARS);
        let threads = progs
            .iter()
            .map(|_| Thread {
                pc: 0,
                regs: [0; NREGS],
                view: [0; MAX_VARS],
                seen: [0; MAX_VARS],
                acq_pending: [0; MAX_VARS],
                rel_view: None,
                halted: false,
            })
            .collect();
        let mut m = Machine {
            mem: Memory::new(nvars),
            threads,
            progs: std::rc::Rc::new(progs),
        };
        for t in 0..m.threads.len() {
            m.settle(t)?;
        }
        Ok(m)
    }

    /// Number of threads.
    pub fn nthreads(&self) -> usize {
        self.threads.len()
    }

    /// Whether every thread has halted.
    pub fn all_halted(&self) -> bool {
        self.threads.iter().all(|t| t.halted)
    }

    /// Whether thread `t` can take a visible step now.
    pub fn enabled(&self, t: usize) -> bool {
        let th = &self.threads[t];
        if th.halted {
            return false;
        }
        match self.progs[t].code[th.pc] {
            Instr::Lock => self.mem.mutex_owner.is_none(),
            _ => true,
        }
    }

    /// How many distinct values thread `t`'s pending visible op may
    /// produce (1 for everything except loads; for loads, the number of
    /// eligible writes under the thread's view/coherence floor).
    pub fn choices(&self, t: usize) -> usize {
        let th = &self.threads[t];
        match self.progs[t].code[th.pc] {
            Instr::Load { var, .. } => {
                let floor = self.load_floor(t, var as usize);
                self.mem.hist[var as usize].len() - floor
            }
            _ => 1,
        }
    }

    fn load_floor(&self, t: usize, var: usize) -> usize {
        let th = &self.threads[t];
        (th.view[var].max(th.seen[var])) as usize
    }

    /// Executes thread `t`'s pending visible op (`choice` selects the
    /// write a load reads: `0` = oldest eligible) and settles the thread
    /// onto its next visible op. `Err` carries a failed invariant.
    pub fn step(&mut self, t: usize, choice: usize) -> Result<(), ModelViolation> {
        let pc = self.threads[t].pc;
        match self.progs[t].code[pc] {
            Instr::Load { dst, var, mo } => {
                let v = var as usize;
                let idx = self.load_floor(t, v) + choice;
                let write = self.mem.hist[v][idx].clone();
                let th = &mut self.threads[t];
                th.regs[dst as usize] = write.val;
                th.seen[v] = th.seen[v].max(idx as u32);
                match mo {
                    Mo::Acquire => {
                        join(&mut th.view, &write.msg);
                        th.view[v] = th.view[v].max(idx as u32);
                    }
                    _ => {
                        // The message is banked; an acquire fence may
                        // upgrade this load later.
                        join(&mut th.acq_pending, &write.msg);
                        th.acq_pending[v] = th.acq_pending[v].max(idx as u32);
                    }
                }
            }
            Instr::Store { var, src, mo } => {
                let v = var as usize;
                let idx = self.mem.hist[v].len() as u32;
                let th = &mut self.threads[t];
                th.view[v] = idx;
                th.seen[v] = idx;
                let msg = match mo {
                    Mo::Release => th.view,
                    _ => {
                        let mut m = th.rel_view.unwrap_or([0; MAX_VARS]);
                        m[v] = idx;
                        m
                    }
                };
                let val = th.regs[src as usize];
                self.mem.hist[v].push(Write { val, msg });
            }
            Instr::Fence { mo } => {
                let th = &mut self.threads[t];
                match mo {
                    Mo::Release => th.rel_view = Some(th.view),
                    Mo::Acquire => {
                        let pending = th.acq_pending;
                        join(&mut th.view, &pending);
                    }
                    Mo::Relaxed => {}
                }
            }
            Instr::Lock => {
                debug_assert!(self.mem.mutex_owner.is_none());
                self.mem.mutex_owner = Some(t);
                let mv = self.mem.mutex_view;
                join(&mut self.threads[t].view, &mv);
            }
            Instr::Unlock => {
                debug_assert_eq!(self.mem.mutex_owner, Some(t));
                self.mem.mutex_owner = None;
                let tv = self.threads[t].view;
                join(&mut self.mem.mutex_view, &tv);
            }
            ref other => unreachable!("pending op must be visible, found {other:?}"),
        }
        self.threads[t].pc += 1;
        self.settle(t)
    }

    /// Runs invisible instructions until the pc rests on a visible op or
    /// the thread halts. Checks fire here.
    fn settle(&mut self, t: usize) -> Result<(), ModelViolation> {
        loop {
            let pc = self.threads[t].pc;
            let instr = self.progs[t].code[pc];
            if instr.visible() {
                return Ok(());
            }
            let th = &mut self.threads[t];
            match instr {
                Instr::Imm { dst, val } => th.regs[dst as usize] = val,
                Instr::Addi { dst, src, imm } => {
                    th.regs[dst as usize] = th.regs[src as usize].wrapping_add_signed(imm)
                }
                Instr::Muli { dst, src, imm } => {
                    th.regs[dst as usize] = th.regs[src as usize].wrapping_mul(imm)
                }
                Instr::Add { dst, a, b } => {
                    th.regs[dst as usize] = th.regs[a as usize].wrapping_add(th.regs[b as usize])
                }
                Instr::Jmp { to } => {
                    th.pc = to as usize;
                    continue;
                }
                Instr::Beq { a, b, to } => {
                    if th.regs[a as usize] == th.regs[b as usize] {
                        th.pc = to as usize;
                        continue;
                    }
                }
                Instr::Bne { a, b, to } => {
                    if th.regs[a as usize] != th.regs[b as usize] {
                        th.pc = to as usize;
                        continue;
                    }
                }
                Instr::Bodd { src, to } => {
                    if th.regs[src as usize] % 2 == 1 {
                        th.pc = to as usize;
                        continue;
                    }
                }
                Instr::CkEq { a, b, what } => {
                    if th.regs[a as usize] != th.regs[b as usize] {
                        return Err(self.violation(t, what));
                    }
                }
                Instr::CkLe { a, b, what } => {
                    if th.regs[a as usize] > th.regs[b as usize] {
                        return Err(self.violation(t, what));
                    }
                }
                Instr::Halt => {
                    th.halted = true;
                    return Ok(());
                }
                _ => unreachable!(),
            }
            self.threads[t].pc += 1;
        }
    }

    fn violation(&self, t: usize, what: &'static str) -> ModelViolation {
        ModelViolation {
            thread: self.progs[t].name.clone(),
            what: what.into(),
            schedule: Vec::new(), // filled in by the explorer
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// writer: x = 1 (release); reader: r0 = x (acquire) twice, second
    /// read must not regress (coherence floor).
    #[test]
    fn coherence_floor_prevents_rereading_older_writes() {
        let mut w = Asm::new("w");
        w.op(Instr::Imm { dst: 0, val: 1 })
            .op(Instr::Store {
                var: 0,
                src: 0,
                mo: Mo::Release,
            })
            .op(Instr::Halt);
        let mut r = Asm::new("r");
        r.op(Instr::Load {
            dst: 0,
            var: 0,
            mo: Mo::Acquire,
        })
        .op(Instr::Load {
            dst: 1,
            var: 0,
            mo: Mo::Acquire,
        })
        .op(Instr::Halt);
        // Schedule: writer stores, reader reads new (choice 1), then the
        // second read has exactly one eligible write (the new one).
        let mut m = Machine::new(vec![w.finish(), r.finish()], 1).unwrap();
        m.step(0, 0).unwrap(); // store
        assert_eq!(m.choices(1), 2, "old and new eligible");
        m.step(1, 1).unwrap(); // read the new write
        assert_eq!(m.choices(1), 1, "floor excludes the old write");
        m.step(1, 0).unwrap();
        assert!(m.all_halted());
    }

    /// Without release/acquire, a reader may see the flag but miss the
    /// payload; with them it cannot.
    #[test]
    fn acquire_of_release_store_forces_payload_visibility() {
        let build = |mo_store: Mo, mo_load: Mo| {
            let mut w = Asm::new("w");
            w.op(Instr::Imm { dst: 0, val: 42 })
                .op(Instr::Store {
                    var: 1,
                    src: 0,
                    mo: Mo::Relaxed,
                }) // payload
                .op(Instr::Imm { dst: 1, val: 1 })
                .op(Instr::Store {
                    var: 0,
                    src: 1,
                    mo: mo_store,
                }) // flag
                .op(Instr::Halt);
            let mut r = Asm::new("r");
            r.op(Instr::Load {
                dst: 0,
                var: 0,
                mo: mo_load,
            })
            .op(Instr::Load {
                dst: 1,
                var: 1,
                mo: Mo::Relaxed,
            })
            .op(Instr::Halt);
            (w.finish(), r.finish())
        };

        // Release/acquire: after reading flag==1, payload load has exactly
        // one eligible write (42).
        let (w, r) = build(Mo::Release, Mo::Acquire);
        let mut m = Machine::new(vec![w, r], 2).unwrap();
        m.step(0, 0).unwrap(); // payload store
        m.step(0, 0).unwrap(); // flag store (release)
        m.step(1, 1).unwrap(); // acquire-load flag, choice 1 = new
        assert_eq!(m.choices(1), 1, "payload stale value excluded");

        // Relaxed/relaxed: the stale payload remains eligible.
        let (w, r) = build(Mo::Relaxed, Mo::Relaxed);
        let mut m = Machine::new(vec![w, r], 2).unwrap();
        m.step(0, 0).unwrap();
        m.step(0, 0).unwrap();
        m.step(1, 1).unwrap();
        assert_eq!(m.choices(1), 2, "stale payload still eligible");
    }

    /// Release fence upgrades subsequent relaxed stores; acquire fence
    /// upgrades prior relaxed loads. (The seqlock recipe.)
    #[test]
    fn fence_pair_transfers_views() {
        let mut w = Asm::new("w");
        w.op(Instr::Imm { dst: 0, val: 7 })
            .op(Instr::Store {
                var: 1,
                src: 0,
                mo: Mo::Relaxed,
            }) // payload first
            .op(Instr::Fence { mo: Mo::Release })
            .op(Instr::Imm { dst: 1, val: 1 })
            .op(Instr::Store {
                var: 0,
                src: 1,
                mo: Mo::Relaxed,
            }) // flag, relaxed-after-fence
            .op(Instr::Halt);
        let mut r = Asm::new("r");
        r.op(Instr::Load {
            dst: 0,
            var: 0,
            mo: Mo::Relaxed,
        })
        .op(Instr::Fence { mo: Mo::Acquire })
        .op(Instr::Load {
            dst: 1,
            var: 1,
            mo: Mo::Relaxed,
        })
        .op(Instr::Halt);
        let mut m = Machine::new(vec![w.finish(), r.finish()], 2).unwrap();
        m.step(0, 0).unwrap(); // payload
        m.step(0, 0).unwrap(); // fence
        m.step(0, 0).unwrap(); // flag
        m.step(1, 1).unwrap(); // relaxed-load flag == 1
        m.step(1, 0).unwrap(); // acquire fence joins the flag's message
        assert_eq!(m.choices(1), 1, "payload forced to 7 after fence pair");
    }

    /// Mutex passes the holder's view to the next holder.
    #[test]
    fn mutex_transfers_views() {
        let mut a = Asm::new("a");
        a.op(Instr::Lock)
            .op(Instr::Imm { dst: 0, val: 5 })
            .op(Instr::Store {
                var: 0,
                src: 0,
                mo: Mo::Relaxed,
            })
            .op(Instr::Unlock)
            .op(Instr::Halt);
        let mut b = Asm::new("b");
        b.op(Instr::Lock)
            .op(Instr::Load {
                dst: 0,
                var: 0,
                mo: Mo::Relaxed,
            })
            .op(Instr::Unlock)
            .op(Instr::Halt);
        let mut m = Machine::new(vec![a.finish(), b.finish()], 1).unwrap();
        assert!(m.enabled(0) && m.enabled(1));
        m.step(0, 0).unwrap(); // a locks
        assert!(!m.enabled(1), "mutex held");
        m.step(0, 0).unwrap(); // store
        m.step(0, 0).unwrap(); // unlock
        m.step(1, 0).unwrap(); // b locks, inherits a's view
        assert_eq!(m.choices(1), 1, "must see 5, not the initial 0");
    }
}
