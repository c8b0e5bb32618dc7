// Package datagen synthesizes the datasets of the paper's evaluation:
// memcached item corpora standing in for the Wikipedia/Facebook dumps of
// Table 1, and power-law request streams ("typical for memcached
// workloads", §5.1.2). Corpora are generated from fixed seeds so every
// run reproduces the same bytes.
//
// The generators control exactly the two properties deduplication is
// sensitive to: cross-item redundancy (shared boilerplate and fragments)
// and intra-item entropy (compressed image data has nearly none). See
// DESIGN.md for the substitution rationale.
package datagen

import (
	"fmt"
	"math"
	"math/rand"
)

// Corpus is a set of items (values to cache) plus their keys.
type Corpus struct {
	Name  string
	Keys  []string
	Items [][]byte
}

// TotalBytes returns the summed item size.
func (c *Corpus) TotalBytes() uint64 {
	var n uint64
	for _, it := range c.Items {
		n += uint64(len(it))
	}
	return n
}

// htmlBoilerplate fragments shared across generated pages, mirroring the
// common markup of template-generated sites.
var htmlBoilerplate = []string{
	"<!DOCTYPE html><html lang=\"en\"><head><meta charset=\"utf-8\">",
	"<link rel=\"stylesheet\" href=\"/static/css/site-2008-05.css\" type=\"text/css\" media=\"screen\">",
	"<script type=\"text/javascript\" src=\"/static/js/common.js\"></script>",
	"<div class=\"navbar\"><ul class=\"nav-list\"><li><a href=\"/home\">Home</a></li><li><a href=\"/about\">About</a></li></ul></div>",
	"<div class=\"footer\"><p>Content is available under the terms of the license. Privacy policy. Disclaimers.</p></div>",
	"<table class=\"infobox\" cellspacing=\"3\"><tr><th colspan=\"2\" class=\"infobox-title\">",
	"<div class=\"advertisement\" id=\"ad-top\"><!-- served by adserver-07 --></div>",
	"<span class=\"editsection\">[<a href=\"/edit\" title=\"Edit section\">edit</a>]</span>",
}

var loremWords = []string{
	"the", "of", "and", "a", "to", "in", "is", "was", "he", "for", "it",
	"with", "as", "his", "on", "be", "at", "by", "had", "not", "are",
	"system", "memory", "data", "page", "user", "time", "first", "also",
	"which", "their", "other", "more", "these", "new", "some", "could",
	"history", "article", "section", "reference", "category", "external",
}

// HTMLCorpus generates n web-page items: shared boilerplate, a pool of
// reusable paragraph fragments (pages on related topics repeat them), and
// unique text. Sizes follow a power law like real page dumps.
func HTMLCorpus(name string, n int, meanSize int, seed int64) *Corpus {
	rng := rand.New(rand.NewSource(seed))
	// Fragment pool: paragraphs shared by multiple pages.
	pool := make([]string, 64)
	for i := range pool {
		pool[i] = "<p>" + sentence(rng, 24) + "</p>"
	}
	c := &Corpus{Name: name}
	for i := 0; i < n; i++ {
		size := powerLawSize(rng, meanSize)
		var b []byte
		b = append(b, htmlBoilerplate[0]...)
		b = appendPadded(b, []byte(fmt.Sprintf("<title>Page %d</title></head><body>", i)))
		for _, frag := range htmlBoilerplate[1:] {
			b = appendPadded(b, []byte(frag))
		}
		for len(b) < size {
			if rng.Intn(100) < 55 {
				// Shared fragment: cross-item redundancy.
				b = appendPadded(b, []byte(pool[rng.Intn(len(pool))]))
			} else {
				b = appendPadded(b, []byte("<p>"+sentence(rng, 18)+"</p>"))
			}
		}
		b = append(b, "</body></html>"...)
		c.Items = append(c.Items, b)
		c.Keys = append(c.Keys, fmt.Sprintf("%s:page:%06d", name, i))
	}
	return c
}

// appendPadded appends unit and pads to a 64-byte boundary with spaces
// (HTML-neutral). Template engines emit block-structured output, which is
// what keeps shared fragments line-aligned across pages — the property
// that lets deduplication work at every line size the paper evaluates.
func appendPadded(b, unit []byte) []byte {
	b = append(b, unit...)
	for len(b)%64 != 0 {
		b = append(b, ' ')
	}
	return b
}

// ScriptCorpus generates JavaScript-like items: heavy internal repetition
// (minified library prologues, repeated idioms), high cross-item sharing.
func ScriptCorpus(name string, n int, meanSize int, seed int64) *Corpus {
	rng := rand.New(rand.NewSource(seed))
	idioms := []string{
		"function(a,b){return a===b||typeof a===typeof b&&String(a)===String(b)}",
		"var _gel=function(n){return document.getElementById(n)};",
		"for(var i=0;i<arr.length;i++){if(arr[i]==null)continue;fn(arr[i],i);}",
		"try{x=new XMLHttpRequest()}catch(e){x=new ActiveXObject('Msxml2.XMLHTTP')}",
		"window.setTimeout(function(){poll(url,cb)},1000);",
	}
	prologue := "/* lib v1.2.3 (c) 2008 */(function(window,undefined){var doc=window.document;"
	c := &Corpus{Name: name}
	for i := 0; i < n; i++ {
		size := powerLawSize(rng, meanSize)
		b := []byte(prologue)
		for len(b) < size {
			if rng.Intn(100) < 70 {
				b = appendPadded(b, []byte(idioms[rng.Intn(len(idioms))]))
			} else {
				b = appendPadded(b, []byte(fmt.Sprintf("var v%d=%d;", rng.Intn(1000), rng.Intn(100000))))
			}
		}
		b = append(b, "})(window);"...)
		c.Items = append(c.Items, b)
		c.Keys = append(c.Keys, fmt.Sprintf("%s:script:%06d", name, i))
	}
	return c
}

// BinaryCorpus generates compressed-image-like items: high-entropy bytes
// with essentially no redundancy, the Table 1 case where deduplication
// yields nothing and the DAG adds its small overhead.
func BinaryCorpus(name string, n int, meanSize int, seed int64) *Corpus {
	rng := rand.New(rand.NewSource(seed))
	c := &Corpus{Name: name}
	for i := 0; i < n; i++ {
		size := powerLawSize(rng, meanSize)
		b := make([]byte, size)
		rng.Read(b)
		// JPEG/GIF header magic: the only shared bytes real images have.
		copy(b, []byte{0xFF, 0xD8, 0xFF, 0xE0, 0x00, 0x10, 'J', 'F', 'I', 'F'})
		c.Items = append(c.Items, b)
		c.Keys = append(c.Keys, fmt.Sprintf("%s:img:%06d", name, i))
	}
	return c
}

func sentence(rng *rand.Rand, words int) string {
	b := make([]byte, 0, words*6)
	for i := 0; i < words; i++ {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, loremWords[rng.Intn(len(loremWords))]...)
	}
	b = append(b, '.')
	return string(b)
}

// powerLawSize draws an item size from a Pareto(alpha=1.5) whose mean is
// approximately mean, truncated to [64, 40*mean].
func powerLawSize(rng *rand.Rand, mean int) int {
	const alpha = 1.5
	xm := float64(mean) * (alpha - 1) / alpha
	u := rng.Float64()
	if u < 1e-12 {
		u = 1e-12
	}
	size := int(xm / math.Pow(u, 1/alpha))
	if size < 64 {
		size = 64
	}
	if size > mean*40 {
		size = mean * 40
	}
	return size
}

// Zipf produces a power-law key popularity distribution, the standard
// memcached request skew.
type Zipf struct {
	z *rand.Zipf
}

// NewZipf creates a sampler over [0, n) with exponent s (~1.01 typical).
func NewZipf(n int, s float64, seed int64) *Zipf {
	rng := rand.New(rand.NewSource(seed))
	return &Zipf{z: rand.NewZipf(rng, s, 1, uint64(n-1))}
}

// Next returns a key index.
func (z *Zipf) Next() int { return int(z.z.Uint64()) }

// Request is one memcached operation in a generated trace.
type Request struct {
	Get bool
	Key int // corpus item index
}

// RequestTrace draws nReq requests over a corpus with the given get:set
// ratio (e.g. 10 for the paper's 10:1) and Zipf-skewed popularity.
func RequestTrace(corpusSize, nReq, getToSet int, seed int64) []Request {
	rng := rand.New(rand.NewSource(seed))
	z := NewZipf(corpusSize, 1.07, seed+1)
	out := make([]Request, nReq)
	for i := range out {
		out[i] = Request{
			Get: rng.Intn(getToSet+1) != 0, // 1 set per getToSet gets
			Key: z.Next(),
		}
	}
	return out
}
