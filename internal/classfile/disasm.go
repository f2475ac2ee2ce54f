package classfile

import (
	"fmt"
	"strings"
)

// Disassemble renders a javap-like listing of the class file — the
// same job as the paper's javap benchmark, available both as a Go
// library/binary and (reimplemented in MiniJava) as a DoppioJVM
// workload.
func Disassemble(cf *ClassFile) string {
	var b strings.Builder
	kind := "class"
	if cf.Flags&AccInterface != 0 {
		kind = "interface"
	}
	fmt.Fprintf(&b, "%s %s", kind, cf.Name())
	if super := cf.SuperName(); super != "" && super != "java/lang/Object" {
		fmt.Fprintf(&b, " extends %s", super)
	}
	if ifaces := cf.InterfaceNames(); len(ifaces) > 0 {
		fmt.Fprintf(&b, " implements %s", strings.Join(ifaces, ", "))
	}
	b.WriteString(" {\n")
	for i := range cf.Fields {
		f := &cf.Fields[i]
		fmt.Fprintf(&b, "  %s%s %s;\n", flagString(f.Flags), cf.MemberDesc(f), cf.MemberName(f))
	}
	for i := range cf.Methods {
		m := &cf.Methods[i]
		fmt.Fprintf(&b, "  %s%s %s\n", flagString(m.Flags), cf.MemberName(m), cf.MemberDesc(m))
		code, err := cf.CodeOf(m)
		if err != nil {
			fmt.Fprintf(&b, "    <bad code attribute: %v>\n", err)
			continue
		}
		if code == nil {
			continue
		}
		fmt.Fprintf(&b, "    Code: stack=%d, locals=%d\n", code.MaxStack, code.MaxLocals)
		disasmCode(&b, cf, code)
		for _, e := range code.Exceptions {
			catch := "any"
			if e.CatchType != 0 {
				if n, err := cf.ClassNameAt(e.CatchType); err == nil {
					catch = n
				}
			}
			fmt.Fprintf(&b, "    Exception: [%d, %d) -> %d, type %s\n",
				e.StartPC, e.EndPC, e.HandlerPC, catch)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

func flagString(flags uint16) string {
	var parts []string
	if flags&AccPublic != 0 {
		parts = append(parts, "public")
	}
	if flags&AccPrivate != 0 {
		parts = append(parts, "private")
	}
	if flags&AccProtected != 0 {
		parts = append(parts, "protected")
	}
	if flags&AccStatic != 0 {
		parts = append(parts, "static")
	}
	if flags&AccFinal != 0 {
		parts = append(parts, "final")
	}
	if flags&AccNative != 0 {
		parts = append(parts, "native")
	}
	if flags&AccAbstract != 0 {
		parts = append(parts, "abstract")
	}
	if len(parts) == 0 {
		return ""
	}
	return strings.Join(parts, " ") + " "
}

func disasmCode(b *strings.Builder, cf *ClassFile, code *Code) {
	bc := code.Bytecode
	for pc := 0; pc < len(bc); {
		op := bc[pc]
		name := OpNames[op]
		if name == "" {
			fmt.Fprintf(b, "    %4d: <illegal %#02x>\n", pc, op)
			return
		}
		n, ok := instrLen(bc, pc)
		if !ok {
			fmt.Fprintf(b, "    %4d: %s <truncated>\n", pc, name)
			return
		}
		fmt.Fprintf(b, "    %4d: %s%s\n", pc, name, operandString(cf, bc, pc))
		pc += n
	}
}

// instrLen is InstrLen for bytecode no verifier has seen: ok is false
// when the instruction at pc does not lie wholly inside bc, as in a
// Code attribute cut mid-instruction or a switch whose bounds run
// past the end.
func instrLen(bc []byte, pc int) (int, bool) {
	header := 0 // bytes InstrLen reads past pc to size the instruction
	switch bc[pc] {
	case OpWide:
		header = 2
	case OpTableswitch:
		header = (pc+4)&^3 + 12 - pc
	case OpLookupswitch:
		header = (pc+4)&^3 + 8 - pc
	}
	if pc+header > len(bc) {
		return 0, false
	}
	n := InstrLen(bc, pc)
	return n, n > 0 && pc+n <= len(bc)
}

func operandString(cf *ClassFile, bc []byte, pc int) string {
	op := bc[pc]
	switch op {
	case OpBipush:
		return fmt.Sprintf(" %d", int8(bc[pc+1]))
	case OpSipush:
		return fmt.Sprintf(" %d", int16(be16(bc, pc+1)))
	case OpLdc:
		return " " + constString(cf, uint16(bc[pc+1]))
	case OpLdcW, OpLdc2W:
		return " " + constString(cf, be16(bc, pc+1))
	case OpIload, OpLload, OpFload, OpDload, OpAload,
		OpIstore, OpLstore, OpFstore, OpDstore, OpAstore, OpRet:
		return fmt.Sprintf(" %d", bc[pc+1])
	case OpIinc:
		return fmt.Sprintf(" %d, %d", bc[pc+1], int8(bc[pc+2]))
	case OpIfeq, OpIfne, OpIflt, OpIfge, OpIfgt, OpIfle,
		OpIfIcmpeq, OpIfIcmpne, OpIfIcmplt, OpIfIcmpge, OpIfIcmpgt, OpIfIcmple,
		OpIfAcmpeq, OpIfAcmpne, OpGoto, OpJsr, OpIfnull, OpIfnonnull:
		return fmt.Sprintf(" %d", pc+int(int16(be16(bc, pc+1))))
	case OpGotoW, OpJsrW:
		return fmt.Sprintf(" %d", pc+int(int32(be32(bc, pc+1))))
	case OpGetstatic, OpPutstatic, OpGetfield, OpPutfield,
		OpInvokevirtual, OpInvokespecial, OpInvokestatic:
		return " " + refString(cf, be16(bc, pc+1))
	case OpInvokeinterface:
		return fmt.Sprintf(" %s, count %d", refString(cf, be16(bc, pc+1)), bc[pc+3])
	case OpNew, OpAnewarray, OpCheckcast, OpInstanceof:
		if n, err := cf.ClassNameAt(be16(bc, pc+1)); err == nil {
			return " " + n
		}
		return fmt.Sprintf(" #%d", be16(bc, pc+1))
	case OpNewarray:
		return " " + arrayTypeName(bc[pc+1])
	case OpMultianewarray:
		n, _ := cf.ClassNameAt(be16(bc, pc+1))
		return fmt.Sprintf(" %s, dims %d", n, bc[pc+3])
	case OpWide:
		inner := OpNames[bc[pc+1]]
		if bc[pc+1] == OpIinc {
			return fmt.Sprintf(" %s %d, %d", inner, be16(bc, pc+2), int16(be16(bc, pc+4)))
		}
		return fmt.Sprintf(" %s %d", inner, be16(bc, pc+2))
	case OpTableswitch:
		base := (pc + 4) &^ 3
		def := pc + int(int32(be32(bc, base)))
		low := int(int32(be32(bc, base+4)))
		high := int(int32(be32(bc, base+8)))
		var parts []string
		for i := 0; i <= high-low; i++ {
			parts = append(parts, fmt.Sprintf("%d->%d", low+i, pc+int(int32(be32(bc, base+12+4*i)))))
		}
		return fmt.Sprintf(" {%s, default->%d}", strings.Join(parts, ", "), def)
	case OpLookupswitch:
		base := (pc + 4) &^ 3
		def := pc + int(int32(be32(bc, base)))
		n := int(int32(be32(bc, base+4)))
		var parts []string
		for i := 0; i < n; i++ {
			k := int(int32(be32(bc, base+8+8*i)))
			t := pc + int(int32(be32(bc, base+12+8*i)))
			parts = append(parts, fmt.Sprintf("%d->%d", k, t))
		}
		return fmt.Sprintf(" {%s, default->%d}", strings.Join(parts, ", "), def)
	default:
		return ""
	}
}

func constString(cf *ClassFile, i uint16) string {
	if int(i) >= len(cf.ConstPool) {
		return fmt.Sprintf("#%d", i)
	}
	c := &cf.ConstPool[i]
	switch c.Tag {
	case TagInteger:
		return fmt.Sprintf("int %d", c.Int)
	case TagFloat:
		return fmt.Sprintf("float %g", c.Float)
	case TagLong:
		return fmt.Sprintf("long %d", c.Long)
	case TagDouble:
		return fmt.Sprintf("double %g", c.Double)
	case TagString:
		s, _ := cf.StringAt(i)
		return fmt.Sprintf("String %q", s)
	case TagClass:
		n, _ := cf.ClassNameAt(i)
		return "class " + n
	default:
		return fmt.Sprintf("#%d", i)
	}
}

func refString(cf *ClassFile, i uint16) string {
	class, name, desc, err := cf.RefAt(i)
	if err != nil {
		return fmt.Sprintf("#%d", i)
	}
	return fmt.Sprintf("%s.%s:%s", class, name, desc)
}

func arrayTypeName(code byte) string {
	switch code {
	case 4:
		return "boolean"
	case 5:
		return "char"
	case 6:
		return "float"
	case 7:
		return "double"
	case 8:
		return "byte"
	case 9:
		return "short"
	case 10:
		return "int"
	case 11:
		return "long"
	}
	return fmt.Sprintf("<%d>", code)
}
