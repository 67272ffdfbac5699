package datagen

import (
	"math/rand"

	"repro/internal/xmltree"
)

// HamletNodes is the element count of the paper's Hamlet file
// (Section 7.3: "the Hamlet file has totally 6636 nodes").
const HamletNodes = 6636

// hamletActSizes are the subtree sizes of Hamlet's five act elements,
// derived from Table 4: inserting before act[i] re-labels every node
// from act[i] onward plus the play root under integer containment
// labeling, so consecutive differences of the paper's counts
// {6596, 5121, 3932, 2431, 1300} pin the act sizes exactly.
var hamletActSizes = [5]int{1475, 1189, 1501, 1131, 1299}

// hamletFrontMatter is the number of element nodes before act[1]
// (title and personae block): 6636 − 1 (play) − Σacts.
const hamletFrontMatter = 40

// HamletRelabelCounts returns the expected "number of nodes to
// re-label" for V/F-Binary-Containment in the five insertion cases of
// Table 4.
func HamletRelabelCounts() [5]int { return [5]int{6596, 5121, 3932, 2431, 1300} }

// Hamlet generates the Hamlet stand-in: a play element tree with
// exactly HamletNodes nodes, five acts of the Table 4 subtree sizes,
// and a 40-node front matter (title + personae).
func Hamlet() *xmltree.Document {
	rng := rand.New(rand.NewSource(500))
	play := el("play")
	play.AppendChild(el("title"))
	// personae block: 39 nodes = personae + title + 29 persona +
	// 2 pgroups of 4 (pgroup, grpdescr, 2 persona).
	buildPersonae(play, 29, 2)
	for _, size := range hamletActSizes {
		play.AppendChild(buildAct(rng, size))
	}
	return &xmltree.Document{Root: play}
}

// buildPersonae appends a personae block with p loose persona elements
// followed by g pgroups (pgroup > grpdescr + 2 persona). Total nodes:
// 2 + p + 4g.
func buildPersonae(play *xmltree.Node, p, g int) *xmltree.Node {
	personae := play.AppendChild(el("personae"))
	personae.AppendChild(el("title"))
	addKids(personae, "persona", p)
	for i := 0; i < g; i++ {
		pg := personae.AppendChild(el("pgroup"))
		pg.AppendChild(el("grpdescr"))
		addKids(pg, "persona", 2)
	}
	return personae
}

// buildAct returns an act subtree with exactly size nodes:
// act > (title, scene*), scene > (title, speech*), speech >
// (speaker, line*) — depth 6 from the play root. size must be ≥ 12.
func buildAct(rng *rand.Rand, size int) *xmltree.Node {
	act := el("act")
	act.AppendChild(el("title"))
	rem := size - 2
	sceneTarget := rem / (4 + rng.Intn(3)) // 4-6 scenes per act
	if sceneTarget < 10 {
		sceneTarget = 10
	}
	var lastSpeech *xmltree.Node
	for rem > 0 {
		budget := sceneTarget + rng.Intn(sceneTarget/4+1) - sceneTarget/8
		if budget > rem || rem-budget < 10 {
			budget = rem
		}
		if budget < 5 {
			// Too small for a scene: absorb as extra lines.
			if lastSpeech != nil {
				addLines(rng, lastSpeech, budget)
			} else {
				addKids(act, "prologue", budget)
			}
			rem = 0
			break
		}
		scene, last := buildScene(rng, budget)
		act.AppendChild(scene)
		if last != nil {
			lastSpeech = last
		}
		rem -= budget
	}
	return act
}

// addLines appends line content consuming exactly count nodes; about
// one line in eight carries a stagedir child, which is what gives the
// Shakespeare data its depth-6 paths.
func addLines(rng *rand.Rand, sp *xmltree.Node, count int) {
	for count > 0 {
		ln := sp.AppendChild(el("line"))
		count--
		if count > 0 && rng.Intn(8) == 0 {
			ln.AppendChild(el("stagedir"))
			count--
		}
	}
}

// buildScene returns a scene subtree with exactly size nodes and the
// last speech element built (for line padding by the caller).
func buildScene(rng *rand.Rand, size int) (*xmltree.Node, *xmltree.Node) {
	scene := el("scene")
	scene.AppendChild(el("title"))
	rem := size - 2
	var lastSpeech *xmltree.Node
	for rem >= 3 {
		lines := 2 + rng.Intn(4) // 2-5 lines per speech
		cost := 2 + lines
		if cost > rem {
			lines = rem - 2
			cost = rem
		}
		sp := scene.AppendChild(el("speech"))
		sp.AppendChild(el("speaker"))
		addLines(rng, sp, lines)
		lastSpeech = sp
		rem -= cost
	}
	if rem > 0 {
		if lastSpeech != nil {
			addLines(rng, lastSpeech, rem)
		} else {
			addKids(scene, "stagedir", rem)
		}
	}
	return scene, lastSpeech
}

// actFractions splits a play's act budget so that acts 3-5 carry
// ≈59.5% of the content, matching the Q4 result share.
var actFractions = [5]float64{0.210, 0.195, 0.210, 0.190, 0.195}

// buildPlay returns a play of exactly size nodes with p loose personas
// and g pgroups. size must exceed 2 + (2+p+4g) + 5×12.
func buildPlay(rng *rand.Rand, size, p, g int) *xmltree.Node {
	play := el("play")
	play.AppendChild(el("title"))
	buildPersonae(play, p, g)
	actsBudget := size - 2 - (2 + p + 4*g)
	used := 0
	for i := 0; i < 5; i++ {
		b := int(float64(actsBudget) * actFractions[i])
		if i == 4 {
			b = actsBudget - used
		}
		if b < 12 {
			b = 12
		}
		play.AppendChild(buildAct(rng, b))
		used += b
	}
	return play
}

// Query is one row of the paper's Table 3: a query over D5 and the
// number of nodes the paper retrieved on D5 scaled ×10.
type Query struct {
	ID    string
	Path  string
	Paper int
}

// Table3 returns Q1–Q6 exactly as Table 3 lists them.
func Table3() []Query {
	return []Query{
		{"Q1", "/play/act[4]", 370},
		{"Q2", "/play//personae[./title]/pgroup[.//grpdescr]/persona", 2690},
		{"Q3", "/play/personae/persona[12]/preceding-sibling::*", 4240},
		{"Q4", "//act[2]/following::speaker", 184060},
		{"Q5", "//act/scene/speech", 309330},
		{"Q6", "/play/*//line", 1078330},
	}
}

// D5 generates the Shakespeare dataset: 37 plays totalling the Table 2
// node count, including the exact Hamlet file, replicated scale times
// (the paper scales D5 ×10 for the query experiments). Replicas share
// the same trees, as replicated files would.
func D5(scale int) Dataset {
	rng := rand.New(rand.NewSource(105))
	spec := Specs()[4]
	base := make([]*xmltree.Document, spec.Files)
	hamletIndex := 8
	sizes := splitSizes(rng, spec.TotalNodes-HamletNodes, spec.Files-1, 3200, 900)
	si := 0
	for i := range base {
		if i == hamletIndex {
			base[i] = Hamlet()
			continue
		}
		p := 12 + rng.Intn(20)
		if si < 2 {
			// Two plays lack a 12th persona, so Q3 matches ~35/37
			// plays as in the paper's cardinality.
			p = 6 + rng.Intn(5)
		}
		g := 2 + rng.Intn(4)
		base[i] = &xmltree.Document{Root: buildPlay(rng, sizes[si], p, g)}
		si++
	}
	files := make([]*xmltree.Document, 0, spec.Files*scale)
	for c := 0; c < scale; c++ {
		files = append(files, base...)
	}
	return Dataset{Name: spec.Name, Topic: spec.Topic, Files: files}
}
