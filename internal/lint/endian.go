package lint

import (
	"go/ast"
	"strings"
)

// newEndian builds the endian analyzer: the wire-format packages may only
// reference binary.BigEndian.
//
// Invariant: DWP parcels, CDW protocol frames, the bincodec
// primitives both protocols share, TDF packets, and indicator-mode records
// are encoded network byte order end to end. A single LittleEndian (or
// host-order NativeEndian) reference silently corrupts framing between the
// legacy client and the virtualizer — the decoder reads a garbage length
// and desynchronizes the stream.
func newEndian() *Analyzer {
	return &Analyzer{
		Name: "endian",
		Doc:  "wire-format packages (wire, cdwnet, bincodec, tdf, ltype) may only reference binary.BigEndian",
		Run:  runEndian,
	}
}

// endianScoped reports whether pkgPath is a wire-format package. Suffix
// matching keeps the rule applicable to the testdata fixture mirrors.
func endianScoped(pkgPath string) bool {
	for _, base := range []string{"wire", "cdwnet", "bincodec", "tdf", "ltype"} {
		if pkgPath == base || strings.HasSuffix(pkgPath, "/"+base) {
			return true
		}
	}
	return false
}

func runEndian(p *Pass) {
	if !endianScoped(p.Path) {
		return
	}
	p.walkFiles(func(file *ast.File, n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if sel.Sel.Name != "LittleEndian" && sel.Sel.Name != "NativeEndian" {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || p.pkgOf(file, id) != "encoding/binary" {
			return true
		}
		p.Report(sel, "binary.%s in a wire-format package; the wire is BigEndian only", sel.Sel.Name)
		return true
	})
}
