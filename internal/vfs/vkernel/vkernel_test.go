package vkernel

import (
	"path"
	"strings"
	"testing"
)

func TestNormalizeAndClean(t *testing.T) {
	norm := map[string]string{
		"":             ".",
		"/":            "/",
		"/a//b///c/":   "/a/b/c",
		"a/./b":        "a/b",
		"/a/b/../c":    "/a/c",
		"/a/../../b":   "/b",
		"../a":         "../a",
		"a/..":         ".",
		"/..":          "/",
		"a/b/../../..": "..",
	}
	for in, want := range norm {
		if got := Normalize(in); got != want {
			t.Errorf("Normalize(%q) = %q, want %q", in, got, want)
		}
	}
	clean := map[string]string{
		"":        "/",
		"a/b":     "/a/b",
		"../a":    "/a",
		"/a/../b": "/b",
		"/a/b/":   "/a/b",
	}
	for in, want := range clean {
		if got := Clean(in); got != want {
			t.Errorf("Clean(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestResolve(t *testing.T) {
	cases := []struct{ cwd, p, want string }{
		{"/", "/a/b", "/a/b"},
		{"/home", "rel.txt", "/home/rel.txt"},
		{"/home", "../etc", "/etc"},
		{"/home", ".", "/home"},
		{"", "x", "/x"},
		{"/a/b", "/c/../d", "/d"},
	}
	for _, c := range cases {
		if got := Resolve(c.cwd, c.p); got != c.want {
			t.Errorf("Resolve(%q, %q) = %q, want %q", c.cwd, c.p, got, c.want)
		}
	}
}

func TestSplitDir(t *testing.T) {
	cases := []struct{ p, dir, base string }{
		{"/", "/", ""},
		{"/a", "/", "a"},
		{"/a/b", "/a", "b"},
		{"/a/b/c", "/a/b", "c"},
	}
	for _, c := range cases {
		dir, base := SplitDir(c.p)
		if dir != c.dir || base != c.base {
			t.Errorf("SplitDir(%q) = (%q, %q), want (%q, %q)", c.p, dir, base, c.dir, c.base)
		}
	}
}

func TestPrefixMatching(t *testing.T) {
	if !Under("/mnt/a", "/mnt") || !Under("/mnt", "/mnt") || !Under("/x", "/") {
		t.Error("Under misses true cases")
	}
	if Under("/mntx", "/mnt") || Under("/m", "/mnt") {
		t.Error("Under matches sibling prefixes")
	}
	if got := Rel("/mnt/a/b", "/mnt"); got != "/a/b" {
		t.Errorf("Rel = %q", got)
	}
	if got := Rel("/mnt", "/mnt"); got != "/" {
		t.Errorf("Rel(self) = %q", got)
	}
	if got := Rel("/a/b", "/"); got != "/a/b" {
		t.Errorf("Rel(root) = %q", got)
	}
	if !Covers("/", "/mnt") || !Covers("/a", "/a/b/c") {
		t.Error("Covers misses true cases")
	}
	if Covers("/a", "/a") || Covers("/a", "/ab") {
		t.Error("Covers matches self or siblings")
	}
}

func TestChildOf(t *testing.T) {
	cases := []struct {
		dir, p string
		name   string
		ok     bool
	}{
		{"/", "/a", "a", true},
		{"/", "/a/b", "a", true},
		{"/a", "/a/b/c", "b", true},
		{"/a", "/a", "", false},
		{"/a", "/ab", "", false},
		{"/a/b", "/a", "", false},
	}
	for _, c := range cases {
		name, ok := ChildOf(c.dir, c.p)
		if name != c.name || ok != c.ok {
			t.Errorf("ChildOf(%q, %q) = (%q, %v), want (%q, %v)", c.dir, c.p, name, ok, c.name, c.ok)
		}
	}
}

// FuzzResolve checks the path kernel on arbitrary input, since backends
// such as FlatKV build their storage keys from resolved paths:
// Normalize and Resolve are idempotent, agree with path.Clean whenever
// the result is absolute, and SplitDir and ChildOf take a resolved path
// apart consistently.
func FuzzResolve(f *testing.F) {
	for _, p := range []string{"", "/", "/a//b///c/", "a/./b", "/a/b/../c", "/a/../../b",
		"../a", "a/..", "/..", "a/b/../../..", "/a/b/", "/mnt/a/b", "/ab"} {
		f.Add("/", p)
	}
	f.Add("/home", "rel.txt")
	f.Add("/home", "../etc")
	f.Add("/home", ".")
	f.Add("", "x")
	f.Add("/a/b", "/c/../d")
	f.Add("a", "b/../c")
	f.Fuzz(func(t *testing.T, cwd, p string) {
		n := Normalize(p)
		if again := Normalize(n); again != n {
			t.Fatalf("Normalize(%q) = %q, but Normalize(%q) = %q", p, n, n, again)
		}
		if IsAbs(n) && n != path.Clean(p) {
			t.Fatalf("Normalize(%q) = %q, path.Clean = %q", p, n, path.Clean(p))
		}
		r := Resolve(cwd, p)
		if !IsAbs(r) {
			t.Fatalf("Resolve(%q, %q) = %q is not absolute", cwd, p, r)
		}
		if again := Resolve(cwd, r); again != r {
			t.Fatalf("Resolve(%q, %q) = %q, but resolving that again gives %q", cwd, p, r, again)
		}
		want := path.Clean(p)
		if !IsAbs(p) {
			want = path.Clean("/" + cwd + "/" + p)
		}
		if r != want {
			t.Fatalf("Resolve(%q, %q) = %q, path.Clean gives %q", cwd, p, r, want)
		}

		dir, base := SplitDir(r)
		if base == "" {
			if r != Sep || dir != Sep {
				t.Fatalf("SplitDir(%q) = (%q, %q): only the root has no base", r, dir, base)
			}
			return
		}
		if strings.Contains(base, Sep) || DirPrefix(dir)+base != r {
			t.Fatalf("SplitDir(%q) = (%q, %q) does not rejoin", r, dir, base)
		}
		if name, ok := ChildOf(dir, r); !ok || name != base {
			t.Fatalf("ChildOf(%q, %q) = (%q, %v), SplitDir gives base %q", dir, r, name, ok, base)
		}
		if _, ok := ChildOf(r, r); ok {
			t.Fatalf("ChildOf(%q, %q) reports a path as its own child", r, r)
		}
	})
}
