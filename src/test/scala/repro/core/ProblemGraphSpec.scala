package repro.core

import org.scalatest.funsuite.AnyFunSuite

class ProblemGraphSpec extends AnyFunSuite {

  private def point(id: String, bin: Int, nBins: Int = 4): IndexedSeq[FeatureHistogram] = {
    val bins = Array.fill(nBins)(0L); bins(bin) = 100L
    IndexedSeq(FeatureHistogram(id, 0, bins, 100, bin.toDouble / nBins, 0.25))
  }

  private val hists = Map(
    "a" -> point("a", 0), "b" -> point("b", 0),
    "c" -> point("c", 3), "d" -> point("d", 3))

  test("complete policy keeps all problem pairs as edges") {
    val g = ProblemGraph.build(hists, Seq("a", "b", "c", "d"), KS, ProblemGraph.Complete)
    assert(g.edges.size == 6)
  }

  test("above-mean policy drops dissimilar edges") {
    val g = ProblemGraph.build(hists, Seq("a", "b", "c", "d"), KS)
    // a-b and c-d are identical-distribution pairs; cross pairs are not
    assert(g.weight("a", "b").isDefined)
    assert(g.weight("c", "d").isDefined)
    assert(g.weight("a", "c").isEmpty)
  }

  test("threshold policy keeps edges above the threshold") {
    val g = ProblemGraph.build(hists, Seq("a", "b", "c", "d"), KS, ProblemGraph.Threshold(0.99))
    assert(g.edges.size == 2)
  }

  test("edge weights are the aggregated problem similarities") {
    val g = ProblemGraph.build(hists, Seq("a", "b"), KS, ProblemGraph.Complete)
    val expected = DistributionAnalysis.problemSimilarity(hists("a"), hists("b"), KS)
    assert(math.abs(g.weight("a", "b").get - expected) < 1e-12)
  }

  test("problems without histograms are skipped") {
    val g = ProblemGraph.build(hists, Seq("a", "b", "zz"), KS, ProblemGraph.Complete)
    assert(g.nodes.toSet == Set("a", "b"))
  }

  test("weight lookup is order-independent") {
    val g = ProblemGraph.build(hists, Seq("a", "b"), KS, ProblemGraph.Complete)
    assert(g.weight("a", "b") == g.weight("b", "a"))
  }

  test("addNode appends a vertex with its edges") {
    val g = ProblemGraph.build(hists, Seq("a", "b"), KS, ProblemGraph.Complete)
    val g2 = g.addNode("e", Seq("a" -> 0.9))
    assert(g2.nodes.last == "e")
    assert(g2.weight("a", "e").contains(0.9))
    assert(g2.weight("b", "e").isEmpty)
  }

  test("addNode rejects duplicates and unknown edge targets are dropped") {
    val g = ProblemGraph.build(hists, Seq("a", "b"), KS, ProblemGraph.Complete)
    assertThrows[IllegalArgumentException](g.addNode("a", Nil))
    val g2 = g.addNode("e", Seq("ghost" -> 0.5))
    assert(g2.edges.size == g.edges.size)
  }

  test("clustering the built graph groups identical-distribution problems") {
    val g = ProblemGraph.build(hists, Seq("a", "b", "c", "d"), KS)
    val c = Leiden.cluster(g.nodes.size, g.edges, seed = 1)
    val byId = g.nodes.zip(c).toMap
    assert(byId("a") == byId("b"))
    assert(byId("c") == byId("d"))
    assert(byId("a") != byId("c"))
  }
}
