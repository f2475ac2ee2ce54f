package classfile_test

import (
	"sort"
	"testing"

	"doppio/internal/bench/workloads"
	"doppio/internal/classfile"
)

// FuzzParse feeds arbitrary bytes to the class-file parser, seeded
// with every class of the benchmark corpus. Class files reach the JVM
// from the VFS, so no input may panic or hang: Parse either rejects
// it or returns a ClassFile that the accessors behind Disassemble (the
// same ones class linking uses) can walk.
//
//	go test ./internal/classfile -run '^$' -fuzz FuzzParse -fuzztime 20s
func FuzzParse(f *testing.F) {
	classes, err := workloads.Classes()
	if err != nil {
		f.Fatal(err)
	}
	names := make([]string, 0, len(classes))
	for name := range classes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(classes[name])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cf, err := classfile.Parse(data)
		if err != nil {
			return
		}
		classfile.Disassemble(cf)
	})
}
