#include "workload/scenario.h"

#include <cassert>

#include "models/zoo.h"

namespace dream {
namespace workload {

std::vector<TaskId>
Scenario::childrenOf(TaskId parent) const
{
    std::vector<TaskId> kids;
    for (TaskId t = 0; t < TaskId(tasks.size()); ++t) {
        if (tasks[t].dependsOn == parent)
            kids.push_back(t);
    }
    return kids;
}

bool
Scenario::isLeaf(TaskId task) const
{
    for (const auto& t : tasks) {
        if (t.dependsOn == task)
            return false;
    }
    return true;
}

std::vector<const models::Model*>
Scenario::models() const
{
    std::vector<const models::Model*> out;
    out.reserve(tasks.size());
    for (const auto& t : tasks)
        out.push_back(&t.model);
    return out;
}

namespace {

TaskSpec
task(models::Model model, double fps, TaskId depends_on = kNoParent,
     double trigger_prob = 1.0)
{
    TaskSpec t;
    t.model = std::move(model);
    t.fps = fps;
    t.dependsOn = depends_on;
    t.triggerProb = trigger_prob;
    return t;
}

} // anonymous namespace

Scenario
makeScenario(ScenarioPreset preset, double cascade_prob)
{
    using namespace models::zoo;
    Scenario s;
    s.name = toString(preset);
    switch (preset) {
      case ScenarioPreset::VrGaming:
        // Gaze 60 (one pipeline instance per eye), HandDet 30 and
        // PoseEst 30 (dep HD; one pipeline instance per hand, as in
        // XRBench), Context(OFA) 30, KWS 15, Translation 15
        // (dep KWS).
        s.tasks.push_back(task(fbnetC(), 60));          // 0 gaze L
        s.tasks.push_back(task(fbnetC(), 60));          // 1 gaze R
        s.tasks.push_back(task(ssdMobileNetV2(), 30));  // 2 hand L
        s.tasks.push_back(task(handPoseNet(), 30, 2, cascade_prob));
        s.tasks.push_back(task(ssdMobileNetV2(), 30));  // 4 hand R
        s.tasks.push_back(task(handPoseNet(), 30, 4, cascade_prob));
        s.tasks.push_back(task(ofaSupernet(), 30));
        s.tasks.push_back(task(kwsRes8(), 15));
        s.tasks.push_back(task(gnmt(), 15, 7, cascade_prob));
        break;
      case ScenarioPreset::ArCall:
        // KWS 15, Translation 15 (dep KWS), Context(SkipNet) 30.
        s.tasks.push_back(task(kwsRes8(), 15));
        s.tasks.push_back(task(gnmt(), 15, 0, cascade_prob));
        s.tasks.push_back(task(skipNet(), 30));
        break;
      case ScenarioPreset::DroneOutdoor:
        // ObjDet 30, OutdoorNav 60, VisualOdometry 60.
        s.tasks.push_back(task(ssdMobileNetV2(), 30));
        s.tasks.push_back(task(trailNet(), 60));
        s.tasks.push_back(task(sosNet(), 60));
        break;
      case ScenarioPreset::DroneIndoor:
        // ObjDet 30, IndoorNav(RAPID-RL) 60, Obstacle 60, Car 60.
        s.tasks.push_back(task(ssdMobileNetV2(), 30));
        s.tasks.push_back(task(rapidRl(), 60));
        s.tasks.push_back(task(sosNet(), 60));
        s.tasks.push_back(task(googLeNetCar(), 60));
        break;
      case ScenarioPreset::ArSocial:
        // Depth 30, ActionSeg 30, FaceDet 30, FaceVerif 30 (dep FD),
        // Context(OFA) 30.
        s.tasks.push_back(task(focalLengthDepth(), 30));
        s.tasks.push_back(task(edTcn(), 30));
        s.tasks.push_back(task(ssdMobileNetV2(), 30));
        s.tasks.push_back(task(vggVoxCeleb(), 30, 2, cascade_prob));
        s.tasks.push_back(task(ofaSupernet(), 30));
        break;
    }
    assert(!s.tasks.empty());
    return s;
}

std::vector<ScenarioPreset>
allScenarioPresets()
{
    return {ScenarioPreset::VrGaming, ScenarioPreset::ArCall,
            ScenarioPreset::DroneOutdoor, ScenarioPreset::DroneIndoor,
            ScenarioPreset::ArSocial};
}

std::string
toString(ScenarioPreset preset)
{
    switch (preset) {
      case ScenarioPreset::VrGaming:
        return "VR_Gaming";
      case ScenarioPreset::ArCall:
        return "AR_Call";
      case ScenarioPreset::DroneOutdoor:
        return "Drone_Outdoor";
      case ScenarioPreset::DroneIndoor:
        return "Drone_Indoor";
      case ScenarioPreset::ArSocial:
        return "AR_Social";
    }
    return "unknown";
}

} // namespace workload
} // namespace dream
