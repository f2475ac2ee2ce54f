package classfile

import (
	"strings"
	"testing"
)

// buildSample constructs a small class by hand:
//
//	public class demo/Adder extends java/lang/Object {
//	    public static int add(int, int) { return a + b; }
//	}
func buildSample() *ClassFile {
	pb := NewPoolBuilder()
	this := pb.Class("demo/Adder")
	super := pb.Class("java/lang/Object")
	nameIdx := pb.Utf8("add")
	descIdx := pb.Utf8("(II)I")
	codeAttr := pb.Utf8("Code")
	// Also exercise every constant kind.
	pb.Int(42)
	pb.Long(1 << 40)
	pb.Float(2.5)
	pb.Double(3.25)
	pb.String("hello")
	pb.FieldRef("demo/Adder", "count", "I")
	pb.MethodRef("java/lang/Object", "<init>", "()V")
	pb.InterfaceMethodRef("java/lang/Runnable", "run", "()V")

	code := &Code{
		MaxStack:  2,
		MaxLocals: 2,
		Bytecode:  []byte{OpIload0, OpIload1, OpIadd, OpIreturn},
		Exceptions: []ExceptionEntry{
			{StartPC: 0, EndPC: 3, HandlerPC: 3, CatchType: super},
		},
	}
	return &ClassFile{
		Minor: MinorVersion, Major: MajorVersion,
		ConstPool:  pb.Pool(),
		Flags:      AccPublic | AccSuper,
		ThisClass:  this,
		SuperClass: super,
		Methods: []Member{{
			Flags: AccPublic | AccStatic,
			Name:  nameIdx,
			Desc:  descIdx,
			Attrs: []Attribute{{Name: codeAttr, Data: EncodeCode(code)}},
		}},
	}
}

func TestRoundTrip(t *testing.T) {
	orig := buildSample()
	data := orig.Write()
	cf, err := Parse(data)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if cf.Name() != "demo/Adder" {
		t.Errorf("Name = %q", cf.Name())
	}
	if cf.SuperName() != "java/lang/Object" {
		t.Errorf("SuperName = %q", cf.SuperName())
	}
	if len(cf.Methods) != 1 {
		t.Fatalf("methods = %d", len(cf.Methods))
	}
	m := &cf.Methods[0]
	if cf.MemberName(m) != "add" || cf.MemberDesc(m) != "(II)I" {
		t.Errorf("method = %s %s", cf.MemberName(m), cf.MemberDesc(m))
	}
	code, err := cf.CodeOf(m)
	if err != nil || code == nil {
		t.Fatalf("CodeOf: %v", err)
	}
	if code.MaxStack != 2 || code.MaxLocals != 2 {
		t.Errorf("code header = %+v", code)
	}
	want := []byte{OpIload0, OpIload1, OpIadd, OpIreturn}
	if len(code.Bytecode) != len(want) {
		t.Fatalf("bytecode = %v", code.Bytecode)
	}
	for i := range want {
		if code.Bytecode[i] != want[i] {
			t.Fatalf("bytecode = %v, want %v", code.Bytecode, want)
		}
	}
	if len(code.Exceptions) != 1 || code.Exceptions[0].EndPC != 3 {
		t.Errorf("exceptions = %+v", code.Exceptions)
	}
	// All the constant kinds survived.
	foundLong := false
	for _, c := range cf.ConstPool {
		if c.Tag == TagLong && c.Long == 1<<40 {
			foundLong = true
		}
	}
	if !foundLong {
		t.Error("long constant lost in round trip")
	}
}

func TestDoubleRoundTripIdentical(t *testing.T) {
	data := buildSample().Write()
	cf, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	again := cf.Write()
	if string(again) != string(data) {
		t.Error("Write(Parse(x)) != x")
	}
}

func TestBadInputs(t *testing.T) {
	// Member name and descriptor indices must name Utf8 constants.
	badMember := func(edit func(cf *ClassFile, m *Member)) []byte {
		cf := buildSample()
		edit(cf, &cf.Methods[0])
		return cf.Write()
	}
	cases := [][]byte{
		nil,
		{0xCA, 0xFE},
		{0xDE, 0xAD, 0xBE, 0xEF, 0, 0, 0, 45, 0, 1},
		buildSample().Write()[:20],
		badMember(func(cf *ClassFile, m *Member) { m.Name = cf.ThisClass }),
		badMember(func(cf *ClassFile, m *Member) { m.Desc = 0x3030 }),
		badMember(func(cf *ClassFile, m *Member) { m.Name = 0 }),
	}
	for i, data := range cases {
		if _, err := Parse(data); err == nil {
			t.Errorf("case %d: Parse accepted bad input", i)
		}
	}
}

func TestInstructionCountIs201(t *testing.T) {
	if got := InstructionCount(); got != 201 {
		t.Errorf("InstructionCount = %d, want 201 (JVM spec 2nd edition)", got)
	}
}

func TestInstrLenSimple(t *testing.T) {
	cases := []struct {
		code []byte
		want int
	}{
		{[]byte{OpNop}, 1},
		{[]byte{OpBipush, 5}, 2},
		{[]byte{OpSipush, 1, 2}, 3},
		{[]byte{OpInvokeinterface, 0, 1, 1, 0}, 5},
		{[]byte{OpWide, OpIload, 0, 5}, 4},
		{[]byte{OpWide, OpIinc, 0, 5, 0, 1}, 6},
		{[]byte{OpGotoW, 0, 0, 0, 5}, 5},
	}
	for _, c := range cases {
		if got := InstrLen(c.code, 0); got != c.want {
			t.Errorf("InstrLen(%v) = %d, want %d", c.code, got, c.want)
		}
	}
}

func TestInstrLenSwitches(t *testing.T) {
	// tableswitch at pc=0: opcode + 3 pad + default(4) + low(4) + high(4) + 2 offsets(8)
	ts := []byte{OpTableswitch, 0, 0, 0,
		0, 0, 0, 20, // default
		0, 0, 0, 1, // low
		0, 0, 0, 2, // high
		0, 0, 0, 10,
		0, 0, 0, 12,
	}
	if got := InstrLen(ts, 0); got != len(ts) {
		t.Errorf("tableswitch InstrLen = %d, want %d", got, len(ts))
	}
	// lookupswitch with 1 pair.
	ls := []byte{OpLookupswitch, 0, 0, 0,
		0, 0, 0, 20, // default
		0, 0, 0, 1, // npairs
		0, 0, 0, 7, // key
		0, 0, 0, 14, // offset
	}
	if got := InstrLen(ls, 0); got != len(ls) {
		t.Errorf("lookupswitch InstrLen = %d, want %d", got, len(ls))
	}
}

func TestDisassemble(t *testing.T) {
	cf, err := Parse(buildSample().Write())
	if err != nil {
		t.Fatal(err)
	}
	out := Disassemble(cf)
	for _, want := range []string{"class demo/Adder", "public static add", "(II)I",
		"iload_0", "iload_1", "iadd", "ireturn", "Exception:"} {
		if !strings.Contains(out, want) {
			t.Errorf("disassembly missing %q:\n%s", want, out)
		}
	}
}

// TestDisassembleTruncatedCode feeds Disassemble Code attributes that
// end mid-instruction, as an unverified class file can: the listing
// marks the cut instead of reading past the bytecode.
func TestDisassembleTruncatedCode(t *testing.T) {
	for _, bc := range [][]byte{
		{OpIload0, OpBipush},
		{OpWide},
		{OpWide, OpIinc, 0},
		{OpTableswitch, 0, 0, 0, 0, 0, 0, 0},
		{OpTableswitch, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff},
		{OpLookupswitch, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1},
	} {
		cf := buildSample()
		code := &Code{MaxStack: 2, MaxLocals: 2, Bytecode: bc}
		cf.Methods[0].Attrs[0].Data = EncodeCode(code)
		parsed, err := Parse(cf.Write())
		if err != nil {
			t.Fatal(err)
		}
		if out := Disassemble(parsed); !strings.Contains(out, "<truncated>") {
			t.Errorf("bytecode % x: listing does not mark the cut:\n%s", bc, out)
		}
	}
}

func TestParseMethodDesc(t *testing.T) {
	params, ret, err := ParseMethodDesc("(IJLjava/lang/String;[B[[D)V")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"I", "J", "Ljava/lang/String;", "[B", "[[D"}
	if len(params) != len(want) {
		t.Fatalf("params = %v", params)
	}
	for i := range want {
		if params[i] != want[i] {
			t.Errorf("param %d = %q, want %q", i, params[i], want[i])
		}
	}
	if ret != "V" {
		t.Errorf("ret = %q", ret)
	}
	if _, _, err := ParseMethodDesc("()"); err == nil {
		t.Error("empty return accepted")
	}
	if _, _, err := ParseMethodDesc("(Q)V"); err == nil {
		t.Error("bad type accepted")
	}
	if n, _ := ArgSlots("(IJD)V"); n != 5 {
		t.Errorf("ArgSlots = %d, want 5", n)
	}
}

func TestModifiedUTF8(t *testing.T) {
	s := "a\x00b"
	enc := encodeModifiedUTF8(s)
	if len(enc) != 4 || enc[1] != 0xC0 || enc[2] != 0x80 {
		t.Errorf("encode = %v", enc)
	}
	if got := decodeModifiedUTF8(enc); got != s {
		t.Errorf("decode = %q", got)
	}
}
