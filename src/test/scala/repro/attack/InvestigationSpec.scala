package repro.attack

import org.apache.spark.sql.DataFrame

import repro.{SparkSpec, TestUtil}
import repro.baseline.NaiveSqlBaseline
import repro.core._

/** End-to-end reproduction of the paper's investigation (Section 3): all 19
  * multievent + 1 anomaly queries run over the synthetic enterprise trace;
  * every query must (a) recover its ground-truth attack binding and (b)
  * return exactly the same rows as the semantically equivalent SQL executed
  * by the naive baseline, also with the join in declared order and with no
  * broadcast.
  */
class InvestigationSpec extends SparkSpec {

  private lazy val events: DataFrame = {
    val df = AttackDataGen.events(spark, sf = 0.004, seed = 7).cache()
    df.count()
    df
  }
  private lazy val aiql = new Aiql(spark, InMemory(events))
  private val armConfs = Seq(
    "declared-order" -> AiqlConf(selectivityOrdering = false),
    "no-broadcast" -> AiqlConf(broadcastThreshold = -1),
  )
  private lazy val arms = armConfs.map { case (arm, conf) => arm -> new Aiql(spark, InMemory(events), conf) }.toMap
  private lazy val baseline = new NaiveSqlBaseline(spark, events)

  for (q <- InvestigationQueries.all) {
    test(s"${q.name} recovers the attack: ${q.step}") {
      val res = aiql.query(q.aiql).cache()
      assert(res.count() > 0, s"${q.name} returned nothing")
      assert(TestUtil.containsBinding(res, q.expect),
        s"${q.name} results lack ${q.expect}")
    }

    test(s"${q.name} matches the semantically equivalent SQL") {
      TestUtil.assertSameRows(aiql.query(q.aiql), baseline.execute(q.aiql), q.name)
    }

    for ((arm, _) <- armConfs)
      test(s"${q.name} matches the semantically equivalent SQL: $arm") {
        TestUtil.assertSameRows(arms(arm).query(q.aiql), baseline.execute(q.aiql), s"${q.name} $arm")
      }
  }

  test("the anomaly query pinpoints powershell.exe, not the beacon-free sbblv") {
    val res = aiql.query(InvestigationQueries.anomaly.aiql)
    val procs = res.select("p").distinct().collect().map(_.getString(0)).toSet
    assert(procs == Set("powershell.exe"))
  }

  test("q18 totals the exfiltrated volume") {
    val res = aiql.query(InvestigationQueries.byName("q18").aiql)
    val m = res.collect().map(r => r.getString(0) -> r.getLong(2)).toMap
    val powershell = AttackFacts.beaconTimes.size * AttackFacts.beaconAmount +
                     AttackFacts.burstTimes.size * AttackFacts.burstAmount
    assert(m("powershell.exe") == powershell)
    assert(m("sbblv.exe") == AttackFacts.burstAmount)
  }

  test("q19 sees the attacker IP from three staged hosts") {
    val res = aiql.query(InvestigationQueries.byName("q19").aiql)
    val agents = res.select("evt_agentid").distinct().collect().map(_.getInt(0)).toSet
    assert(agents == Set(AttackFacts.IrcServer, AttackFacts.DomainController,
                         AttackFacts.DbServer))
  }
}
