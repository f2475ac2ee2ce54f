package classfile

import (
	"encoding/binary"
	"fmt"
	"math"
)

// reader is a bounds-checked big-endian cursor over class file bytes.
type reader struct {
	data []byte
	pos  int
	err  error
}

func (r *reader) fail(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf("classfile: "+format+" at offset %d", append(args, r.pos)...)
	}
}

func (r *reader) u1() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.data) {
		r.fail("truncated (need 1 byte)")
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func (r *reader) u2() uint16 {
	if r.err != nil {
		return 0
	}
	if r.pos+2 > len(r.data) {
		r.fail("truncated (need 2 bytes)")
		return 0
	}
	v := binary.BigEndian.Uint16(r.data[r.pos:])
	r.pos += 2
	return v
}

func (r *reader) u4() uint32 {
	if r.err != nil {
		return 0
	}
	if r.pos+4 > len(r.data) {
		r.fail("truncated (need 4 bytes)")
		return 0
	}
	v := binary.BigEndian.Uint32(r.data[r.pos:])
	r.pos += 4
	return v
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.pos+n > len(r.data) {
		r.fail("truncated (need %d bytes)", n)
		return nil
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b
}

// Parse decodes a class file.
func Parse(data []byte) (*ClassFile, error) {
	r := &reader{data: data}
	if magic := r.u4(); magic != Magic && r.err == nil {
		return nil, fmt.Errorf("classfile: bad magic %#x", magic)
	}
	cf := &ClassFile{}
	cf.Minor = r.u2()
	cf.Major = r.u2()

	// Constant pool: count entries are indexed 1..count-1.
	count := int(r.u2())
	if count == 0 {
		return nil, fmt.Errorf("classfile: empty constant pool")
	}
	cf.ConstPool = make([]Constant, count)
	for i := 1; i < count && r.err == nil; i++ {
		tag := ConstTag(r.u1())
		c := &cf.ConstPool[i]
		c.Tag = tag
		switch tag {
		case TagUtf8:
			n := int(r.u2())
			c.Utf8 = decodeModifiedUTF8(r.bytes(n))
		case TagInteger:
			c.Int = int32(r.u4())
		case TagFloat:
			c.Float = math.Float32frombits(r.u4())
		case TagLong:
			hi := uint64(r.u4())
			lo := uint64(r.u4())
			c.Long = int64(hi<<32 | lo)
			i++ // occupies two slots
		case TagDouble:
			hi := uint64(r.u4())
			lo := uint64(r.u4())
			c.Double = math.Float64frombits(hi<<32 | lo)
			i++
		case TagClass, TagString:
			c.Idx1 = r.u2()
		case TagFieldref, TagMethodref, TagInterfaceMethodref, TagNameAndType:
			c.Idx1 = r.u2()
			c.Idx2 = r.u2()
		default:
			return nil, fmt.Errorf("classfile: unknown constant tag %d at pool index %d", tag, i)
		}
	}

	cf.Flags = r.u2()
	cf.ThisClass = r.u2()
	cf.SuperClass = r.u2()
	nIfaces := int(r.u2())
	for i := 0; i < nIfaces && r.err == nil; i++ {
		cf.Interfaces = append(cf.Interfaces, r.u2())
	}
	var parseMembers func() []Member
	parseMembers = func() []Member {
		n := int(r.u2())
		out := make([]Member, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			m := Member{Flags: r.u2(), Name: r.u2(), Desc: r.u2()}
			m.Attrs = parseAttrs(r)
			out = append(out, m)
		}
		return out
	}
	cf.Fields = parseMembers()
	cf.Methods = parseMembers()
	cf.Attrs = parseAttrs(r)
	if r.err != nil {
		return nil, r.err
	}
	// Member names and descriptors must be Utf8 constants: MemberName
	// and MemberDesc (disassembly, class linking) rely on it.
	for _, members := range [][]Member{cf.Fields, cf.Methods} {
		for i := range members {
			if _, err := cf.Utf8(members[i].Name); err != nil {
				return nil, fmt.Errorf("classfile: member %d name: %w", i, err)
			}
			if _, err := cf.Utf8(members[i].Desc); err != nil {
				return nil, fmt.Errorf("classfile: member %d descriptor: %w", i, err)
			}
		}
	}
	// Validate the class references up front.
	if _, err := cf.ClassNameAt(cf.ThisClass); err != nil {
		return nil, err
	}
	if cf.SuperClass != 0 {
		if _, err := cf.ClassNameAt(cf.SuperClass); err != nil {
			return nil, err
		}
	}
	return cf, nil
}

func parseAttrs(r *reader) []Attribute {
	n := int(r.u2())
	out := make([]Attribute, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		name := r.u2()
		length := int(r.u4())
		data := r.bytes(length)
		out = append(out, Attribute{Name: name, Data: append([]byte(nil), data...)})
	}
	return out
}

func parseCode(data []byte) (*Code, error) {
	r := &reader{data: data}
	c := &Code{}
	c.MaxStack = r.u2()
	c.MaxLocals = r.u2()
	codeLen := int(r.u4())
	c.Bytecode = append([]byte(nil), r.bytes(codeLen)...)
	nExc := int(r.u2())
	for i := 0; i < nExc && r.err == nil; i++ {
		c.Exceptions = append(c.Exceptions, ExceptionEntry{
			StartPC: r.u2(), EndPC: r.u2(), HandlerPC: r.u2(), CatchType: r.u2(),
		})
	}
	c.Attrs = parseAttrs(r)
	if r.err != nil {
		return nil, r.err
	}
	return c, nil
}

// decodeModifiedUTF8 decodes the JVM's modified UTF-8 (NUL encoded as
// 0xC0 0x80; no 4-byte forms). For the subset we emit it matches
// standard UTF-8, and we pass through unknown sequences unchanged.
func decodeModifiedUTF8(b []byte) string {
	// Fast path: plain ASCII and standard UTF-8 are byte-identical.
	hasC080 := false
	for i := 0; i+1 < len(b); i++ {
		if b[i] == 0xC0 && b[i+1] == 0x80 {
			hasC080 = true
			break
		}
	}
	if !hasC080 {
		return string(b)
	}
	out := make([]byte, 0, len(b))
	for i := 0; i < len(b); i++ {
		if b[i] == 0xC0 && i+1 < len(b) && b[i+1] == 0x80 {
			out = append(out, 0)
			i++
			continue
		}
		out = append(out, b[i])
	}
	return string(out)
}

// encodeModifiedUTF8 encodes a string in the JVM's modified UTF-8.
func encodeModifiedUTF8(s string) []byte {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == 0 {
			out = append(out, 0xC0, 0x80)
			continue
		}
		out = append(out, s[i])
	}
	return out
}
