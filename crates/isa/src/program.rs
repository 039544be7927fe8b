use crate::error::IsaError;
use crate::inst::{Inst, Operand};
use crate::memory::Memory;
use crate::opcode::Opcode;
use crate::reg::Reg;
use crate::wire::{WireError, WireReader, WireWriter};
use crate::DATA_BASE;

/// Initialized data carried with a program.
///
/// The stressmark code generator pre-computes the pointer-chasing chain into
/// the data segment; this is the reproduction's equivalent of the paper's
/// "initialize memory space / dump memory to file" step (Figure 2).
#[derive(Debug, Clone, Default)]
pub struct DataSegment {
    /// Byte address at which `bytes` is loaded.
    pub base: u64,
    /// Raw initialized bytes.
    pub bytes: Vec<u8>,
}

impl DataSegment {
    /// Creates a data segment at the default [`DATA_BASE`].
    #[must_use]
    pub fn new(bytes: Vec<u8>) -> DataSegment {
        DataSegment {
            base: DATA_BASE,
            bytes,
        }
    }

    /// Creates a zero-filled segment of `len` bytes at the default base.
    #[must_use]
    pub fn zeroed(len: usize) -> DataSegment {
        DataSegment::new(vec![0; len])
    }

    /// Writes a little-endian quadword at byte offset `off`.
    ///
    /// # Panics
    ///
    /// Panics if `off + 8` exceeds the segment length.
    pub fn put_u64(&mut self, off: usize, value: u64) {
        self.bytes[off..off + 8].copy_from_slice(&value.to_le_bytes());
    }

    /// Loads the segment into a functional memory.
    pub fn load_into(&self, mem: &mut Memory) {
        mem.write_bytes(self.base, &self.bytes);
    }

    /// Segment length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the segment is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

/// A complete, self-contained program: text, initialized data and entry point.
#[derive(Debug, Clone)]
pub struct Program {
    name: String,
    insts: Vec<Inst>,
    data: DataSegment,
    entry: u32,
}

impl Program {
    /// Assembles a program from parts, validating branch targets.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::EmptyProgram`] for an empty instruction list and
    /// [`IsaError::BranchOutOfRange`] if any branch targets an index outside
    /// the text.
    pub fn new(
        name: impl Into<String>,
        insts: Vec<Inst>,
        data: DataSegment,
        entry: u32,
    ) -> Result<Program, IsaError> {
        if insts.is_empty() {
            return Err(IsaError::EmptyProgram);
        }
        let len = insts.len() as u32;
        for (i, inst) in insts.iter().enumerate() {
            if inst.op.is_branch() && inst.target >= len {
                return Err(IsaError::BranchOutOfRange {
                    at: i as u32,
                    target: inst.target,
                    len,
                });
            }
        }
        if entry >= len {
            return Err(IsaError::PcOutOfRange(entry));
        }
        Ok(Program {
            name: name.into(),
            insts,
            data,
            entry,
        })
    }

    /// Program name (used in reports).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The instruction at `index`, or `None` past the end of text.
    #[must_use]
    pub fn fetch(&self, index: u32) -> Option<&Inst> {
        self.insts.get(index as usize)
    }

    /// All instructions.
    #[must_use]
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// Initialized data segment.
    #[must_use]
    pub fn data(&self) -> &DataSegment {
        &self.data
    }

    /// Entry-point instruction index.
    #[must_use]
    pub fn entry(&self) -> u32 {
        self.entry
    }

    /// Number of instructions in the text.
    #[must_use]
    pub fn len(&self) -> u32 {
        self.insts.len() as u32
    }

    /// Whether the text is empty (never true for a validated program).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Serializes the whole program (name, text, data, entry) into a
    /// wire writer. Programs cross process boundaries as part of a
    /// campaign job specification, so the encoding is self-contained:
    /// the decoder needs nothing but the bytes.
    pub fn encode(&self, w: &mut WireWriter) {
        w.str(&self.name);
        w.seq(&self.insts, |w, inst| {
            w.code(&Opcode::ALL, inst.op);
            w.u8(inst.dest.number());
            w.u8(inst.src1.number());
            match inst.src2 {
                Operand::Reg(r) => {
                    w.u8(0);
                    w.u8(r.number());
                }
                Operand::Imm(v) => {
                    w.u8(1);
                    w.i16(v);
                }
            }
            w.i32(inst.disp);
            w.u32(inst.target);
        });
        w.u64(self.data.base);
        w.blob(&self.data.bytes);
        w.u32(self.entry);
    }

    /// Decodes a program written by [`Program::encode`], re-running the
    /// [`Program::new`] validation (branch targets, entry point) so a
    /// corrupted blob cannot smuggle an invalid program into a worker.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncation, unknown opcodes or
    /// registers, or a program that fails structural validation.
    pub fn decode(r: &mut WireReader<'_>) -> Result<Program, WireError> {
        let name = r.str()?;
        // An instruction occupies at least 12 bytes on the wire.
        let reg =
            |n: u8| Reg::new(n).map_err(|_| WireError::Invalid("register number out of range"));
        let insts = r.seq(12, |r| {
            let op = r.code(&Opcode::ALL)?;
            let dest = reg(r.u8()?)?;
            let src1 = reg(r.u8()?)?;
            let src2 = match r.u8()? {
                0 => Operand::Reg(reg(r.u8()?)?),
                1 => Operand::Imm(r.i16()?),
                t => return Err(WireError::BadTag(t)),
            };
            Ok(Inst {
                op,
                dest,
                src1,
                src2,
                disp: r.i32()?,
                target: r.u32()?,
            })
        })?;
        let base = r.u64()?;
        let bytes = r.blob()?.to_vec();
        let entry = r.u32()?;
        Program::new(name, insts, DataSegment { base, bytes }, entry)
            .map_err(|_| WireError::Invalid("program failed structural validation"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Opcode, Reg};

    #[test]
    fn rejects_empty_program() {
        assert!(matches!(
            Program::new("p", vec![], DataSegment::default(), 0),
            Err(IsaError::EmptyProgram)
        ));
    }

    #[test]
    fn rejects_wild_branch() {
        let insts = vec![Inst::branch(Opcode::Beq, Reg::of(1), 7), Inst::halt()];
        let err = Program::new("p", insts, DataSegment::default(), 0).unwrap_err();
        assert!(matches!(err, IsaError::BranchOutOfRange { target: 7, .. }));
    }

    #[test]
    fn rejects_bad_entry() {
        let insts = vec![Inst::halt()];
        assert!(matches!(
            Program::new("p", insts, DataSegment::default(), 5),
            Err(IsaError::PcOutOfRange(5))
        ));
    }

    #[test]
    fn wire_codec_round_trips() {
        let mut data = DataSegment::zeroed(24);
        data.put_u64(16, 0xABCD);
        let insts = vec![
            Inst::alu(Opcode::Add, Reg::of(1), Reg::of(2), Operand::Imm(-7)),
            Inst::alu(
                Opcode::Xor,
                Reg::of(3),
                Reg::of(1),
                Operand::Reg(Reg::of(2)),
            ),
            Inst::load(Opcode::Ldq, Reg::of(4), Reg::of(3), 16),
            Inst::store(Opcode::Stl, Reg::of(4), Reg::of(3), -8),
            Inst::branch(Opcode::Bne, Reg::of(1), 0),
            Inst::halt(),
        ];
        let p = Program::new("codec-test", insts, data, 0).unwrap();
        let mut w = WireWriter::new();
        p.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let q = Program::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(q.name(), p.name());
        assert_eq!(q.insts(), p.insts());
        assert_eq!(q.entry(), p.entry());
        assert_eq!(q.data().base, p.data().base);
        assert_eq!(q.data().bytes, p.data().bytes);
    }

    #[test]
    fn wire_codec_rejects_corruption() {
        let insts = vec![Inst::branch(Opcode::Bne, Reg::ZERO, 1), Inst::halt()];
        let p = Program::new("p", insts, DataSegment::default(), 0).unwrap();
        let mut w = WireWriter::new();
        p.encode(&mut w);
        let good = w.into_bytes();

        // Truncation anywhere must error, never panic.
        for cut in [0, 1, good.len() / 2, good.len() - 1] {
            let mut r = WireReader::new(&good[..cut]);
            assert!(Program::decode(&mut r).is_err(), "cut at {cut}");
        }
        // An unknown opcode byte is a typed tag error. The first inst's
        // opcode sits after the name (8-byte len + "p") and the 8-byte
        // instruction count.
        const OP_OFF: usize = 8 + 1 + 8;
        let mut bad = good.clone();
        bad[OP_OFF] = 0xEE;
        assert!(matches!(
            Program::decode(&mut WireReader::new(&bad)),
            Err(WireError::BadTag(0xEE))
        ));
        // Re-validation catches a branch retargeted out of the text:
        // target is the last field of the 13-byte branch encoding.
        let mut wild = good;
        wild[OP_OFF + 9] = 0x7F;
        assert!(Program::decode(&mut WireReader::new(&wild)).is_err());
    }

    #[test]
    fn data_segment_round_trip() {
        let mut seg = DataSegment::zeroed(64);
        seg.put_u64(8, 0x1122_3344_5566_7788);
        let mut mem = Memory::new();
        seg.load_into(&mut mem);
        assert_eq!(mem.read_u64(seg.base + 8), 0x1122_3344_5566_7788);
        assert_eq!(seg.len(), 64);
        assert!(!seg.is_empty());
    }
}
