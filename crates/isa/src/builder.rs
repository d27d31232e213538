//! Structured program construction.
//!
//! [`ProgramBuilder`] is a tiny assembler: it lets the synthetic workload
//! generators emit instructions with forward/backward label references and
//! lay out the initial data image, then resolves everything into a validated
//! [`Program`].

use crate::instr::{BranchCond, Instruction, Opcode};
use crate::program::{Program, ProgramError, DEFAULT_MEMORY_WORDS};
use crate::reg::ArchReg;
use crate::semantics::{fp_to_word, int_to_word};

/// An opaque label handle returned by [`ProgramBuilder::new_label`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Incremental builder for [`Program`]s.
#[derive(Debug, Clone)]
pub struct ProgramBuilder {
    name: String,
    instrs: Vec<Instruction>,
    data: Vec<u64>,
    memory_words: usize,
    labels: Vec<Option<usize>>,
    fixups: Vec<(usize, Label)>,
}

impl ProgramBuilder {
    /// Start a new program with the default data-memory size.
    pub fn new(name: impl Into<String>) -> Self {
        ProgramBuilder {
            name: name.into(),
            instrs: Vec::new(),
            data: Vec::new(),
            memory_words: DEFAULT_MEMORY_WORDS,
            labels: Vec::new(),
            fixups: Vec::new(),
        }
    }

    /// Override the data-memory size (in 64-bit words).
    pub fn set_memory_words(&mut self, words: usize) -> &mut Self {
        self.memory_words = words;
        self
    }

    /// Append raw words to the initial data image and return the base word
    /// address of the appended block.
    pub fn data_words(&mut self, values: &[u64]) -> i64 {
        let base = self.data.len() as i64;
        self.data.extend_from_slice(values);
        base
    }

    /// Append signed integers to the data image; returns the base address.
    pub fn data_i64(&mut self, values: &[i64]) -> i64 {
        let base = self.data.len() as i64;
        self.data.extend(values.iter().map(|&v| int_to_word(v)));
        base
    }

    /// Append doubles to the data image; returns the base address.
    pub fn data_f64(&mut self, values: &[f64]) -> i64 {
        let base = self.data.len() as i64;
        self.data.extend(values.iter().map(|&v| fp_to_word(v)));
        base
    }

    /// Reserve `words` zero-initialised words; returns the base address.
    pub fn data_zeroed(&mut self, words: usize) -> i64 {
        let base = self.data.len() as i64;
        self.data.extend(std::iter::repeat_n(0, words));
        base
    }

    /// Allocate a fresh, unbound label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Bind a label to the *next* emitted instruction.
    ///
    /// # Panics
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) {
        assert!(
            self.labels[label.0].is_none(),
            "label {:?} bound twice",
            label
        );
        self.labels[label.0] = Some(self.instrs.len());
    }

    /// Allocate a label already bound to the next instruction.
    pub fn here(&mut self) -> Label {
        let l = self.new_label();
        self.bind(l);
        l
    }

    /// Emit a raw instruction.
    pub fn push(&mut self, instr: Instruction) -> usize {
        self.instrs.push(instr);
        self.instrs.len() - 1
    }

    // ---- three-register integer ops -------------------------------------

    /// Emit a three-register integer operation (`IAdd`, `ISub`, `IMul`, ...).
    pub fn iop(&mut self, op: Opcode, dst: ArchReg, a: ArchReg, b: ArchReg) -> usize {
        self.push(Instruction {
            op,
            dst: Some(dst),
            src1: Some(a),
            src2: Some(b),
            imm: 0,
        })
    }

    /// Emit a register+immediate integer operation (`IAddImm`, `IShlImm`, ...).
    pub fn iopi(&mut self, op: Opcode, dst: ArchReg, a: ArchReg, imm: i64) -> usize {
        self.push(Instruction {
            op,
            dst: Some(dst),
            src1: Some(a),
            src2: None,
            imm,
        })
    }

    /// `dst = imm`
    pub fn li(&mut self, dst: ArchReg, imm: i64) -> usize {
        self.push(Instruction {
            op: Opcode::ILoadImm,
            dst: Some(dst),
            src1: None,
            src2: None,
            imm,
        })
    }

    /// `dst = a + b`
    pub fn add(&mut self, dst: ArchReg, a: ArchReg, b: ArchReg) -> usize {
        self.iop(Opcode::IAdd, dst, a, b)
    }

    /// `dst = a - b`
    pub fn sub(&mut self, dst: ArchReg, a: ArchReg, b: ArchReg) -> usize {
        self.iop(Opcode::ISub, dst, a, b)
    }

    /// `dst = a * b`
    pub fn mul(&mut self, dst: ArchReg, a: ArchReg, b: ArchReg) -> usize {
        self.iop(Opcode::IMul, dst, a, b)
    }

    /// `dst = a + imm`
    pub fn addi(&mut self, dst: ArchReg, a: ArchReg, imm: i64) -> usize {
        self.iopi(Opcode::IAddImm, dst, a, imm)
    }

    /// `dst = a` (register copy via xor-immediate 0)
    pub fn mov(&mut self, dst: ArchReg, a: ArchReg) -> usize {
        self.iopi(Opcode::IXorImm, dst, a, 0)
    }

    // ---- FP ops ----------------------------------------------------------

    /// Emit a two-source FP operation (`FAdd`, `FSub`, `FMul`, `FDiv`, ...).
    pub fn fop(&mut self, op: Opcode, dst: ArchReg, a: ArchReg, b: ArchReg) -> usize {
        self.push(Instruction {
            op,
            dst: Some(dst),
            src1: Some(a),
            src2: Some(b),
            imm: 0,
        })
    }

    /// Emit a single-source FP-unit operation (`FAbs`, `FNeg`, `FSqrt`,
    /// `ItoF`, `FtoI`).
    pub fn fop1(&mut self, op: Opcode, dst: ArchReg, a: ArchReg) -> usize {
        self.push(Instruction {
            op,
            dst: Some(dst),
            src1: Some(a),
            src2: None,
            imm: 0,
        })
    }

    /// `dst = value` (FP immediate load)
    pub fn fli(&mut self, dst: ArchReg, value: f64) -> usize {
        self.push(Instruction {
            op: Opcode::FLoadImm,
            dst: Some(dst),
            src1: None,
            src2: None,
            imm: fp_to_word(value) as i64,
        })
    }

    /// `dst = a + b` (FP)
    pub fn fadd(&mut self, dst: ArchReg, a: ArchReg, b: ArchReg) -> usize {
        self.fop(Opcode::FAdd, dst, a, b)
    }

    /// `dst = a - b` (FP)
    pub fn fsub(&mut self, dst: ArchReg, a: ArchReg, b: ArchReg) -> usize {
        self.fop(Opcode::FSub, dst, a, b)
    }

    /// `dst = a * b` (FP)
    pub fn fmul(&mut self, dst: ArchReg, a: ArchReg, b: ArchReg) -> usize {
        self.fop(Opcode::FMul, dst, a, b)
    }

    /// `dst = a / b` (FP)
    pub fn fdiv(&mut self, dst: ArchReg, a: ArchReg, b: ArchReg) -> usize {
        self.fop(Opcode::FDiv, dst, a, b)
    }

    // ---- memory ----------------------------------------------------------

    /// `dst = memory[base + offset]` (integer load)
    pub fn load_int(&mut self, dst: ArchReg, base: ArchReg, offset: i64) -> usize {
        self.push(Instruction {
            op: Opcode::LoadInt,
            dst: Some(dst),
            src1: Some(base),
            src2: None,
            imm: offset,
        })
    }

    /// `dst = memory[base + offset]` (FP load)
    pub fn load_fp(&mut self, dst: ArchReg, base: ArchReg, offset: i64) -> usize {
        self.push(Instruction {
            op: Opcode::LoadFp,
            dst: Some(dst),
            src1: Some(base),
            src2: None,
            imm: offset,
        })
    }

    /// `memory[base + offset] = data` (integer store)
    pub fn store_int(&mut self, base: ArchReg, offset: i64, data: ArchReg) -> usize {
        self.push(Instruction {
            op: Opcode::StoreInt,
            dst: None,
            src1: Some(base),
            src2: Some(data),
            imm: offset,
        })
    }

    /// `memory[base + offset] = data` (FP store)
    pub fn store_fp(&mut self, base: ArchReg, offset: i64, data: ArchReg) -> usize {
        self.push(Instruction {
            op: Opcode::StoreFp,
            dst: None,
            src1: Some(base),
            src2: Some(data),
            imm: offset,
        })
    }

    // ---- control ---------------------------------------------------------

    /// Conditional branch comparing `a` against `b` (use `None` to compare
    /// against zero), jumping to `target` when the condition holds.
    pub fn branch(
        &mut self,
        cond: BranchCond,
        a: ArchReg,
        b: Option<ArchReg>,
        target: Label,
    ) -> usize {
        let idx = self.push(Instruction {
            op: Opcode::Branch(cond),
            dst: None,
            src1: Some(a),
            src2: b,
            imm: 0,
        });
        self.fixups.push((idx, target));
        idx
    }

    /// Unconditional jump to `target`.
    pub fn jump(&mut self, target: Label) -> usize {
        let idx = self.push(Instruction {
            op: Opcode::Jump,
            dst: None,
            src1: None,
            src2: None,
            imm: 0,
        });
        self.fixups.push((idx, target));
        idx
    }

    /// Stop the program.
    pub fn halt(&mut self) -> usize {
        self.push(Instruction::halt())
    }

    /// No operation.
    pub fn nop(&mut self) -> usize {
        self.push(Instruction::nop())
    }

    /// Resolve all labels and validate the resulting program.
    ///
    /// # Panics
    /// Panics if a referenced label was never bound (this is a programming
    /// error in the generator, not a data error).
    pub fn build(mut self) -> Result<Program, ProgramError> {
        for (idx, label) in std::mem::take(&mut self.fixups) {
            let target = self.labels[label.0]
                .unwrap_or_else(|| panic!("label {label:?} referenced but never bound"));
            self.instrs[idx].imm = target as i64;
        }
        let program = Program::with_data(self.name, self.instrs, self.data, self.memory_words);
        program.validate()?;
        Ok(program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::ArchReg;

    #[test]
    fn builds_a_count_down_loop() {
        let mut b = ProgramBuilder::new("loop");
        let counter = ArchReg::int(1);
        b.li(counter, 5);
        let top = b.here();
        b.addi(counter, counter, -1);
        b.branch(BranchCond::Gt, counter, None, top);
        b.halt();
        let p = b.build().expect("valid program");
        assert_eq!(p.len(), 4);
        // The backward branch must point to the addi instruction.
        assert_eq!(p.instrs[2].imm, 1);
    }

    #[test]
    fn forward_labels_are_resolved() {
        let mut b = ProgramBuilder::new("fwd");
        let r = ArchReg::int(2);
        let done = b.new_label();
        b.li(r, 0);
        b.branch(BranchCond::Eq, r, None, done);
        b.li(r, 99);
        b.bind(done);
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(p.instrs[1].imm, 3);
    }

    #[test]
    #[should_panic(expected = "never bound")]
    fn unbound_label_panics() {
        let mut b = ProgramBuilder::new("bad");
        let l = b.new_label();
        b.jump(l);
        b.halt();
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let mut b = ProgramBuilder::new("bad");
        let l = b.new_label();
        b.bind(l);
        b.bind(l);
    }

    #[test]
    fn data_layout_addresses_are_sequential() {
        let mut b = ProgramBuilder::new("data");
        let a = b.data_i64(&[1, 2, 3]);
        let c = b.data_f64(&[1.5]);
        let z = b.data_zeroed(10);
        assert_eq!(a, 0);
        assert_eq!(c, 3);
        assert_eq!(z, 4);
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(p.data.len(), 14);
        assert_eq!(p.data[0], 1);
        assert_eq!(f64::from_bits(p.data[3]), 1.5);
    }

    #[test]
    fn build_runs_program_validation() {
        let mut b = ProgramBuilder::new("nohalt");
        b.li(ArchReg::int(1), 1);
        assert!(matches!(b.build(), Err(ProgramError::NoHalt)));
    }

    #[test]
    fn mov_and_named_helpers_emit_expected_opcodes() {
        let mut b = ProgramBuilder::new("helpers");
        let r1 = ArchReg::int(1);
        let r2 = ArchReg::int(2);
        let f1 = ArchReg::fp(1);
        let f2 = ArchReg::fp(2);
        b.li(r1, 3);
        b.mov(r2, r1);
        b.add(r1, r1, r2);
        b.fli(f1, 2.0);
        b.fmul(f2, f1, f1);
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(p.instrs[1].op, Opcode::IXorImm);
        assert_eq!(p.instrs[2].op, Opcode::IAdd);
        assert_eq!(p.instrs[4].op, Opcode::FMul);
    }
}
