package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite

/** Property checks of the distribution tests and the aggregated problem
  * similarity on generated histograms, including empty histograms and
  * all-zero standard deviations.
  */
class SimilarityPropertiesSpec extends AnyFunSuite {

  private def histOf(bins: Int): Gen[FeatureHistogram] = for {
    counts <- Gen.frequency(
      1 -> Gen.const(Array.fill(bins)(0L)),
      4 -> Gen.listOfN(bins, Gen.chooseNum(0L, 50L)).map(_.toArray))
    mean <- Gen.choose(0.0, 1.0)
    std <- Gen.frequency(1 -> Gen.const(0.0), 3 -> Gen.choose(0.0, 0.5))
  } yield FeatureHistogram("g", 0, counts, counts.sum, mean, std)

  private val histPair: Gen[(FeatureHistogram, FeatureHistogram)] = for {
    bins <- Gen.choose(1, 20)
    a <- histOf(bins)
    b <- histOf(bins)
  } yield (a, b)

  /** Two problems over the same features and bin count. */
  private val problemPair: Gen[(IndexedSeq[FeatureHistogram], IndexedSeq[FeatureHistogram])] = for {
    features <- Gen.choose(1, 6)
    bins <- Gen.choose(1, 20)
    a <- Gen.listOfN(features, histOf(bins))
    b <- Gen.listOfN(features, histOf(bins))
  } yield (a.toIndexedSeq, b.toIndexedSeq)

  private def check(p: Prop): Unit = {
    val params = Test.Parameters.default.withMinSuccessfulTests(500).withInitialSeed(Seed(20260417L))
    val res = Test.check(params, p)
    assert(res.passed, res.status)
  }

  private def inUnit(x: Double): Boolean = x >= 0.0 && x <= 1.0

  for (t <- DistTest.all) {
    test(s"${t.name} similarity is symmetric") {
      check(Prop.forAllNoShrink(histPair) { case (a, b) =>
        math.abs(t.similarity(a, b) - t.similarity(b, a)) < 1e-9
      })
    }

    test(s"${t.name} similarity lies in [0,1]") {
      check(Prop.forAllNoShrink(histPair) { case (a, b) => inUnit(t.similarity(a, b)) })
    }

    test(s"${t.name} similarity of a histogram with itself is 1") {
      check(Prop.forAllNoShrink(histPair) { case (a, _) => math.abs(t.similarity(a, a) - 1.0) < 1e-12 })
    }

    test(s"problemSimilarity with ${t.name} lies in [0,1] and is 1 on identical input") {
      check(Prop.forAllNoShrink(problemPair) { case (a, b) =>
        inUnit(DistributionAnalysis.problemSimilarity(a, b, t)) &&
        math.abs(DistributionAnalysis.problemSimilarity(a, a, t) - 1.0) < 1e-12
      })
    }
  }
}
