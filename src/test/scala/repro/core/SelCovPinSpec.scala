package repro.core

import scala.util.Random
import repro.{SparkSpec, TestData}
import repro.al.ALConfig
import repro.eval.Metrics.Confusion

/** Steps `MoRER.solveCov` over the unsolved problems of the camera
  * corpus (the split of `MoRERPipelineSpec`) and pins every sel_cov
  * decision, the pooled confusion and the labels spent, at two coverage
  * thresholds that between them reuse, retrain and create clusters. The
  * repository's bookkeeping invariants are checked after every step.
  *
  * The walks use PSI over the complete graph: with KS and the above-mean
  * edge policy, every unsolved problem of this split lands in a cluster
  * of its own, so only the new-cluster branch would run.
  */
class SelCovPinSpec extends SparkSpec {
  import SelCovPinSpec._

  private lazy val ds = TestData.camera
  private lazy val split = {
    val ids = new Random(3).shuffle(ds.problemIds.sorted.toVector)
    ids.splitAt(ids.size / 2)
  }
  private val cfg = MoRERConfig(test = PSI, edgePolicy = ProblemGraph.Complete,
    bTot = 200, bMin = 5, selection = "cov",
    alConfig = ALConfig(kModels = 5, batchSize = 50, initSize = 20))

  private def walk(tCov: Double): Walk = {
    val c = cfg.copy(tCov = tCov)
    val allHists = DistributionAnalysis.histograms(ds.pairs, ds.numFeatures, c.numBins)
    val counts = ds.pairs.groupBy("problemId").count().collect()
      .map(r => r.getString(0) -> r.getLong(1)).toMap
    val init = MoRER.initRepository(spark, ds, split._1, allHists, counts, c)
    val present = split._2.filter(allHists.contains).sorted

    var repo = init
    var conf = Confusion.empty
    val steps = present.zipWithIndex.map { case (pid, i) =>
      val (cf, next) = MoRER.solveCov(spark, ds, repo, pid, c)
      val model = next.modelOf(pid)
      val kind =
        if (next.nextId > repo.nextId) "new"
        else if (repo.clusters(model) eq next.clusters(model)) "reuse"
        else "retrain"

      val processed = present.take(i + 1).toSet
      val nodes = next.graph.nodes.toSet
      assert(nodes == init.solvedT ++ processed, s"graph nodes after $pid")
      assert(next.solvedT.subsetOf(nodes), s"solvedT after $pid")
      assert(next.labelsSpent >= repo.labelsSpent, s"labelsSpent after $pid")
      (init.solvedT ++ processed).foreach(p =>
        assert(next.modelOf.get(p).exists(next.clusters.contains), s"modelOf($p) after $pid"))
      assert(next.clusters.keys.forall(_ < next.nextId), s"nextId after $pid")

      val step = Step(pid, kind, model, next.labelsSpent - repo.labelsSpent, next.numClusters)
      conf = conf + cf
      repo = next
      step
    }
    Walk(steps, conf, repo.labelsSpent)
  }

  private lazy val low = walk(0.05)
  private lazy val mid = walk(0.3)

  test("sel_cov decisions at t_cov = 0.05 are pinned") {
    assert(low.steps == Seq(
      Step("p0_0", "new", 1, 40, 2),
      Step("p0_2", "retrain", 1, 30, 2),
      Step("p1_1", "new", 2, 40, 3),
      Step("p2_2", "retrain", 1, 14, 3),
      Step("p3_3", "new", 3, 22, 4)))
    assert(low.confusion == Confusion(271, 0, 2, 237))
    assert(low.labels == 346)
  }

  test("sel_cov decisions at t_cov = 0.3 are pinned") {
    assert(mid.steps == Seq(
      Step("p0_0", "new", 1, 40, 2),
      Step("p0_2", "retrain", 1, 30, 2),
      Step("p1_1", "new", 2, 40, 3),
      Step("p2_2", "reuse", 1, 0, 3),
      Step("p3_3", "new", 3, 22, 4)))
    assert(mid.confusion == Confusion(272, 0, 1, 237))
    assert(mid.labels == 332)
  }

  test("the pinned walks reuse, retrain and create clusters") {
    val kinds = (low.steps ++ mid.steps).map(_.kind).toSet
    assert(kinds == Set("reuse", "retrain", "new"))
  }

  test("MoRER.run with sel_cov matches the stepped walk") {
    val r = MoRER.run(spark, ds, split._1, split._2, cfg.copy(tCov = 0.05))
    assert(r.confusion == low.confusion && r.labelsSpent == low.labels)
  }
}

object SelCovPinSpec {

  /** One sel_cov step: the problem, its kind of decision, the model that
    * solved it, the labels it cost and the cluster count afterwards.
    */
  final case class Step(problem: String, kind: String, model: Int, labels: Int, clusters: Int)

  final case class Walk(steps: Seq[Step], confusion: Confusion, labels: Int)
}
