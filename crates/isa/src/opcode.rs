use std::fmt;

/// Broad functional class of an opcode, used by the pipeline model to route
/// instructions to structures (IQ vs. LQ vs. SQ) and by the ACE analysis to
/// size their vulnerable state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Single-cycle integer ALU operation.
    IntShort,
    /// Long-latency integer operation (multiply).
    IntLong,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Control transfer (conditional or unconditional).
    Branch,
    /// No-operation (un-ACE by definition).
    Nop,
    /// Simulation terminator.
    Halt,
}

/// Width of a memory access in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessSize {
    /// 4-byte (longword) access; on a 64-bit datapath the upper half of the
    /// data field is un-ACE (paper Section IV-A.3).
    Word,
    /// 8-byte (quadword) access.
    Quad,
}

impl AccessSize {
    /// Access width in bytes.
    #[inline]
    #[must_use]
    pub fn bytes(self) -> u64 {
        match self {
            AccessSize::Word => 4,
            AccessSize::Quad => 8,
        }
    }

    /// Access width in bits.
    #[inline]
    #[must_use]
    pub fn bits(self) -> u64 {
        self.bytes() * 8
    }
}

/// Operation codes of the Alpha-like ISA.
///
/// The set is intentionally small: it is exactly the vocabulary the paper's
/// code generator needs (Section IV-B) — short/long-latency ALU ops in
/// register and immediate forms, 4/8-byte loads and stores, and
/// zero-comparing conditional branches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// 64-bit add.
    Add,
    /// 64-bit subtract.
    Sub,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive-or.
    Xor,
    /// Logical shift left (low 6 bits of operand).
    Sll,
    /// Logical shift right (low 6 bits of operand).
    Srl,
    /// Set-if-less-than (signed), result 0/1.
    Cmplt,
    /// Set-if-equal, result 0/1.
    Cmpeq,
    /// 64-bit multiply (long latency).
    Mul,
    /// Load quadword (8 bytes).
    Ldq,
    /// Load longword (4 bytes, zero-extended).
    Ldl,
    /// Store quadword (8 bytes).
    Stq,
    /// Store longword (low 4 bytes).
    Stl,
    /// Branch if register equals zero.
    Beq,
    /// Branch if register is non-zero.
    Bne,
    /// Branch if register is negative (signed).
    Blt,
    /// Branch if register is non-negative (signed).
    Bge,
    /// Unconditional branch.
    Br,
    /// No-operation.
    Nop,
    /// Stop the (simulated) machine.
    Halt,
}

impl Opcode {
    /// Every opcode, in wire-code order. The position of an opcode in
    /// this table IS its wire code, so new opcodes must be appended.
    pub const ALL: [Opcode; 21] = [
        Opcode::Add,
        Opcode::Sub,
        Opcode::And,
        Opcode::Or,
        Opcode::Xor,
        Opcode::Sll,
        Opcode::Srl,
        Opcode::Cmplt,
        Opcode::Cmpeq,
        Opcode::Mul,
        Opcode::Ldq,
        Opcode::Ldl,
        Opcode::Stq,
        Opcode::Stl,
        Opcode::Beq,
        Opcode::Bne,
        Opcode::Blt,
        Opcode::Bge,
        Opcode::Br,
        Opcode::Nop,
        Opcode::Halt,
    ];

    /// The functional class this opcode belongs to.
    #[must_use]
    pub fn class(self) -> OpClass {
        use Opcode::*;
        match self {
            Add | Sub | And | Or | Xor | Sll | Srl | Cmplt | Cmpeq => OpClass::IntShort,
            Mul => OpClass::IntLong,
            Ldq | Ldl => OpClass::Load,
            Stq | Stl => OpClass::Store,
            Beq | Bne | Blt | Bge | Br => OpClass::Branch,
            Nop => OpClass::Nop,
            Halt => OpClass::Halt,
        }
    }

    /// Whether this opcode reads or writes memory.
    #[inline]
    #[must_use]
    pub fn is_mem(self) -> bool {
        matches!(self.class(), OpClass::Load | OpClass::Store)
    }

    /// Whether this opcode is a load.
    #[inline]
    #[must_use]
    pub fn is_load(self) -> bool {
        self.class() == OpClass::Load
    }

    /// Whether this opcode is a store.
    #[inline]
    #[must_use]
    pub fn is_store(self) -> bool {
        self.class() == OpClass::Store
    }

    /// Whether this opcode is a control transfer.
    #[inline]
    #[must_use]
    pub fn is_branch(self) -> bool {
        self.class() == OpClass::Branch
    }

    /// Whether this opcode is an unconditional control transfer.
    #[inline]
    #[must_use]
    pub fn is_unconditional(self) -> bool {
        self == Opcode::Br
    }

    /// Memory access width, if this is a memory opcode.
    #[must_use]
    pub fn access_size(self) -> Option<AccessSize> {
        match self {
            Opcode::Ldq | Opcode::Stq => Some(AccessSize::Quad),
            Opcode::Ldl | Opcode::Stl => Some(AccessSize::Word),
            _ => None,
        }
    }

    /// Whether the opcode produces a register result.
    #[must_use]
    pub fn writes_register(self) -> bool {
        matches!(
            self.class(),
            OpClass::IntShort | OpClass::IntLong | OpClass::Load
        )
    }

    /// Mnemonic string used by the disassembler.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        use Opcode::*;
        match self {
            Add => "add",
            Sub => "sub",
            And => "and",
            Or => "or",
            Xor => "xor",
            Sll => "sll",
            Srl => "srl",
            Cmplt => "cmplt",
            Cmpeq => "cmpeq",
            Mul => "mul",
            Ldq => "ldq",
            Ldl => "ldl",
            Stq => "stq",
            Stl => "stl",
            Beq => "beq",
            Bne => "bne",
            Blt => "blt",
            Bge => "bge",
            Br => "br",
            Nop => "nop",
            Halt => "halt",
        }
    }

    /// All ALU opcodes with single-cycle latency.
    pub const SHORT_ALU: [Opcode; 9] = [
        Opcode::Add,
        Opcode::Sub,
        Opcode::And,
        Opcode::Or,
        Opcode::Xor,
        Opcode::Sll,
        Opcode::Srl,
        Opcode::Cmplt,
        Opcode::Cmpeq,
    ];
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_are_consistent() {
        assert_eq!(Opcode::Add.class(), OpClass::IntShort);
        assert_eq!(Opcode::Mul.class(), OpClass::IntLong);
        assert!(Opcode::Ldl.is_load());
        assert!(Opcode::Stq.is_store());
        assert!(Opcode::Beq.is_branch());
        assert!(!Opcode::Beq.is_unconditional());
        assert!(Opcode::Br.is_unconditional());
    }

    #[test]
    fn access_sizes() {
        assert_eq!(Opcode::Ldq.access_size(), Some(AccessSize::Quad));
        assert_eq!(Opcode::Stl.access_size(), Some(AccessSize::Word));
        assert_eq!(Opcode::Add.access_size(), None);
        assert_eq!(AccessSize::Word.bits(), 32);
        assert_eq!(AccessSize::Quad.bytes(), 8);
    }

    #[test]
    fn register_writers() {
        assert!(Opcode::Add.writes_register());
        assert!(Opcode::Ldq.writes_register());
        assert!(!Opcode::Stq.writes_register());
        assert!(!Opcode::Beq.writes_register());
        assert!(!Opcode::Nop.writes_register());
    }

    #[test]
    fn short_alu_list_is_all_short() {
        for op in Opcode::SHORT_ALU {
            assert_eq!(op.class(), OpClass::IntShort);
        }
    }
}
