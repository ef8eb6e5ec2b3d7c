package repro.core

import org.scalatest.funsuite.AnyFunSuite

class LeidenSpec extends AnyFunSuite {

  /** Two dense cliques joined by one weak edge. */
  private def twoCliques(k: Int = 5, bridge: Double = 0.05): (Int, Seq[((Int, Int), Double)]) = {
    val edges =
      (for { i <- 0 until k; j <- (i + 1) until k } yield ((i, j), 1.0)) ++
      (for { i <- k until 2 * k; j <- (i + 1) until 2 * k } yield ((i, j), 1.0)) ++
      Seq(((0, k), bridge))
    (2 * k, edges)
  }

  test("two cliques are separated into two communities") {
    val (n, e) = twoCliques()
    val c = Leiden.cluster(n, e, seed = 1)
    assert(c.distinct.length == 2)
    assert(c.slice(0, 5).distinct.length == 1)
    assert(c.slice(5, 10).distinct.length == 1)
    assert(c(0) != c(5))
  }

  test("clustering is deterministic in the seed") {
    val (n, e) = twoCliques()
    assert(Leiden.cluster(n, e, seed = 3).toSeq == Leiden.cluster(n, e, seed = 3).toSeq)
  }

  test("empty graph clusters to nothing") {
    assert(Leiden.cluster(0, Nil).isEmpty)
  }

  test("isolated nodes become singleton communities") {
    val c = Leiden.cluster(3, Nil, seed = 1)
    assert(c.distinct.length == 3)
  }

  test("single edge groups its endpoints") {
    val c = Leiden.cluster(3, Seq(((0, 1), 1.0)), seed = 1)
    assert(c(0) == c(1))
    assert(c(2) != c(0))
  }

  test("community ids are contiguous from 0") {
    val (n, e) = twoCliques()
    val c = Leiden.cluster(n, e, seed = 2)
    assert(c.distinct.sorted.toSeq == (0 until c.distinct.length))
  }

  test("three cliques yield three communities") {
    val k = 4
    val edges = (for {
      block <- 0 until 3
      i <- 0 until k; j <- (i + 1) until k
    } yield ((block * k + i, block * k + j), 1.0)) ++
      Seq(((0, k), 0.02), ((k, 2 * k), 0.02))
    val c = Leiden.cluster(3 * k, edges, seed = 1)
    assert(c.distinct.length == 3)
  }

  test("strongly-weighted bridge merges the cliques") {
    // bridge weight comparable to intra-clique edges on a small graph
    val edges = Seq(((0, 1), 1.0), ((2, 3), 1.0), ((1, 2), 1.0), ((0, 3), 1.0), ((0, 2), 1.0), ((1, 3), 1.0))
    val c = Leiden.cluster(4, edges, seed = 1)
    assert(c.distinct.length == 1) // complete graph = one community
  }

  test("weights matter: a node attaches to its heavier neighbor clique") {
    // node 4 linked weakly to clique {0,1}, strongly to clique {2,3}
    val edges = Seq(((0, 1), 1.0), ((2, 3), 1.0), ((4, 0), 0.1), ((4, 2), 1.0))
    val c = Leiden.cluster(5, edges, seed = 1)
    assert(c(4) == c(2))
  }

  test("self-contained star graph stays one community") {
    val edges = (1 to 5).map(i => ((0, i), 1.0))
    val c = Leiden.cluster(6, edges, seed = 1)
    assert(c.distinct.length == 1)
  }
}
